package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"amtlci/internal/buf"
)

func newRegistry(rank int32) *registry {
	return &registry{rank: rank, mem: make(map[uint64]buf.Buf)}
}

func TestRegistryLifecycle(t *testing.T) {
	g := newRegistry(3)
	b := buf.Virtual(128)
	h := g.MemReg(b)
	if h.Rank != 3 {
		t.Fatalf("handle rank = %d", h.Rank)
	}
	if got := g.Lookup(h); got.Size != 128 {
		t.Fatalf("lookup size = %d", got.Size)
	}
	g.MemDereg(h)
	defer func() {
		if recover() == nil {
			t.Fatal("lookup after dereg did not panic")
		}
	}()
	g.Lookup(h)
}

func TestRegistryRejectsForeignHandles(t *testing.T) {
	g := newRegistry(0)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign lookup did not panic")
		}
	}()
	g.Lookup(MemHandle{Rank: 1, ID: 5})
}

func TestRegistryHandlesAreUnique(t *testing.T) {
	g := newRegistry(0)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		h := g.MemReg(buf.Virtual(1))
		if seen[h.ID] {
			t.Fatal("duplicate handle ID")
		}
		seen[h.ID] = true
	}
}

func TestPutHeaderRoundTrip(t *testing.T) {
	f := func(rank int32, id uint64, rdispl, size int64, dataTag, rtag int32, cbData []byte) bool {
		h := PutHeader{
			RReg:    MemHandle{Rank: rank, ID: id},
			RDispl:  rdispl,
			Size:    size,
			DataTag: dataTag,
			RTag:    Tag(rtag),
			RCBData: cbData,
		}
		got, err := UnmarshalPutHeader(h.AppendTo(nil))
		return err == nil && got.RReg == h.RReg && got.RDispl == h.RDispl && got.Size == h.Size &&
			got.DataTag == h.DataTag && got.RTag == h.RTag && bytes.Equal(got.RCBData, h.RCBData)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPutHeaderEmptyCallbackData(t *testing.T) {
	h := PutHeader{Size: 42}
	got, err := UnmarshalPutHeader(h.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != 42 || len(got.RCBData) != 0 {
		t.Fatalf("got %+v", got)
	}
}

// TestPutHeaderTruncatedInputErrors checks that every prefix of a valid
// encoding — and arbitrary garbage — yields an error, never a panic.
func TestPutHeaderTruncatedInputErrors(t *testing.T) {
	full := PutHeader{
		RReg:    MemHandle{Rank: 3, ID: 77},
		RDispl:  1 << 20,
		Size:    4096,
		DataTag: 12,
		RTag:    9,
		RCBData: []byte("callback-data"),
	}.AppendTo(nil)
	for n := 0; n < len(full); n++ {
		if _, err := UnmarshalPutHeader(full[:n]); err == nil {
			t.Errorf("prefix of %d bytes decoded without error", n)
		}
	}
	if _, err := UnmarshalPutHeader(nil); err == nil {
		t.Error("nil input decoded without error")
	}
	// A header whose declared callback length overruns the buffer.
	bad := append([]byte(nil), full...)
	bad[36] = 0xff
	bad[37] = 0x00
	if _, err := UnmarshalPutHeader(bad); err == nil {
		t.Error("overlong callback length decoded without error")
	}
	// A negative declared callback length.
	neg := append([]byte(nil), full...)
	neg[39] = 0x80
	if _, err := UnmarshalPutHeader(neg); err == nil {
		t.Error("negative callback length decoded without error")
	}
}

// FuzzUnmarshalPutHeader asserts the decoder never panics on arbitrary
// input, and that whatever round-trips, round-trips exactly.
func FuzzUnmarshalPutHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add(PutHeader{Size: 1}.AppendTo(nil))
	f.Add(PutHeader{RCBData: []byte{1, 2, 3}}.AppendTo(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := UnmarshalPutHeader(data)
		if err != nil {
			return
		}
		again, err := UnmarshalPutHeader(h.AppendTo(nil))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.RReg != h.RReg || again.RDispl != h.RDispl || again.Size != h.Size ||
			again.DataTag != h.DataTag || again.RTag != h.RTag ||
			!bytes.Equal(again.RCBData, h.RCBData) {
			t.Fatalf("round trip changed header: %+v vs %+v", h, again)
		}
	})
}

func TestTagTable(t *testing.T) {
	tt := NewTagTable()
	called := false
	tt.Register(5, func(Engine, Tag, []byte, int) { called = true }, 100)
	cb, maxLen := tt.Lookup(5)
	if maxLen != 100 {
		t.Fatalf("maxLen = %d", maxLen)
	}
	cb(nil, 5, nil, 0)
	if !called {
		t.Fatal("callback not invoked")
	}
}

func TestTagTableDuplicatePanics(t *testing.T) {
	tt := NewTagTable()
	tt.Register(1, func(Engine, Tag, []byte, int) {}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	tt.Register(1, func(Engine, Tag, []byte, int) {}, 0)
}

func TestTagTableUnknownLookupPanics(t *testing.T) {
	tt := NewTagTable()
	defer func() {
		if recover() == nil {
			t.Fatal("unknown lookup did not panic")
		}
	}()
	tt.Lookup(99)
}
