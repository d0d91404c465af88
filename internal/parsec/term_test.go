package parsec

import (
	"bytes"
	"testing"
)

// White-box tests for the termination-control wire format. Behavioral
// detector tests (announcement after real runs) live in termination_test.go
// in the external test package.

func TestTermMsgRoundTrip(t *testing.T) {
	msgs := []termMsg{
		{kind: termToken, epoch: 0, round: 1},
		{kind: termToken, epoch: 3, round: 17, q: -42, acts: 9001, black: true},
		{kind: termAnnounce, epoch: 1, round: 4},
		{kind: termNudge, epoch: 2, rank: 7},
		{kind: termDeadvote, epoch: 5, rank: 3},
	}
	for _, m := range msgs {
		b := appendTermMsg(nil, m)
		if len(b) != termMsgBytes {
			t.Fatalf("encoded %d bytes, want %d", len(b), termMsgBytes)
		}
		got, err := decodeTermMsg(b)
		if err != nil {
			t.Fatalf("decode(%+v): %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip: got %+v, want %+v", got, m)
		}
	}
}

func TestTermMsgRejectsMalformed(t *testing.T) {
	good := appendTermMsg(nil, termMsg{kind: termToken, epoch: 1, round: 2, q: 3, acts: 4})

	// Every truncation must be rejected, never panic.
	for i := 0; i < len(good); i++ {
		if _, err := decodeTermMsg(good[:i]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", i)
		}
	}
	// Trailing garbage.
	if _, err := decodeTermMsg(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Unknown kind.
	bad := append([]byte(nil), good...)
	bad[0] = 99
	if _, err := decodeTermMsg(bad); err == nil {
		t.Fatal("unknown kind accepted")
	}
	bad[0] = 0
	if _, err := decodeTermMsg(bad); err == nil {
		t.Fatal("kind 0 accepted")
	}
	// Non-boolean color byte.
	bad = append([]byte(nil), good...)
	bad[len(bad)-5] = 2
	if _, err := decodeTermMsg(bad); err == nil {
		t.Fatal("color byte 2 accepted")
	}
}

// FuzzDecodeTermMsg: the decoder must never panic, and every frame it
// accepts must re-encode byte-identically (the format has exactly one
// representation per message).
func FuzzDecodeTermMsg(f *testing.F) {
	f.Add(appendTermMsg(nil, termMsg{kind: termToken, epoch: 1, round: 2, q: -3, acts: 4, black: true}))
	f.Add(appendTermMsg(nil, termMsg{kind: termDeadvote, epoch: 9, rank: 2}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, termMsgBytes))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeTermMsg(data)
		if err != nil {
			return
		}
		if m.kind < termToken || m.kind > termDeadvote {
			t.Fatalf("accepted unknown kind %d", m.kind)
		}
		if !bytes.Equal(appendTermMsg(nil, m), data) {
			t.Fatalf("accepted frame does not re-encode identically: %x", data)
		}
	})
}
