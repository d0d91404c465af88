package parsec

import (
	"bytes"
	"testing"

	"amtlci/internal/term"
)

// White-box tests for the termination-control wire format. Behavioral
// detector tests (announcement after real runs) live in termination_test.go
// in the external test package.

func TestTermMsgRoundTrip(t *testing.T) {
	msgs := []termMsg{
		{Msg: term.Msg{Kind: term.Token, Round: 1}},
		{Msg: term.Msg{Kind: term.Token, Round: 17, Q: -42, Acts: 9001, Black: true}, epoch: 3},
		{Msg: term.Msg{Kind: term.Announce, Round: 4}, epoch: 1},
		{Msg: term.Msg{Kind: term.Nudge, Rank: 7}, epoch: 2},
		{Msg: term.Msg{Kind: term.Deadvote, Rank: 3}, epoch: 5},
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
	good := appendTermMsg(nil, termMsg{Msg: term.Msg{Kind: term.Token, Round: 2, Q: 3, Acts: 4}, epoch: 1})

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
	f.Add(appendTermMsg(nil, termMsg{Msg: term.Msg{Kind: term.Token, Round: 2, Q: -3, Acts: 4, Black: true}, epoch: 1}))
	f.Add(appendTermMsg(nil, termMsg{Msg: term.Msg{Kind: term.Deadvote, Rank: 2}, epoch: 9}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, termMsgBytes))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeTermMsg(data)
		if err != nil {
			return
		}
		if m.Kind < term.Token || m.Kind > term.Deadvote {
			t.Fatalf("accepted unknown kind %d", m.Kind)
		}
		if !bytes.Equal(appendTermMsg(nil, m), data) {
			t.Fatalf("accepted frame does not re-encode identically: %x", data)
		}
	})
}
