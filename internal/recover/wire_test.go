package recover

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

func TestCkptCodecRoundTrip(t *testing.T) {
	k := Key{Class: 7, Index: 1 << 33}
	flows := []FlowCkpt{
		{Flow: 0, Size: 5, Data: []byte{1, 2, 3, 4, 5}},
		{Flow: 2, Size: 0, Data: nil},
	}
	b := appendFrame(nil, k, flows, -1)
	got, gk, owner, err := decodeWire(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gk != k || len(got) != len(flows) {
		t.Fatalf("decoded key %+v, %d flows", gk, len(got))
	}
	if owner != -1 {
		t.Fatalf("v1 frame decoded owner %d, want -1 (implied by sender)", owner)
	}
	for i := range flows {
		if got[i].Flow != flows[i].Flow || got[i].Size != flows[i].Size ||
			!bytes.Equal(got[i].Data, flows[i].Data) {
			t.Fatalf("flow %d: got %+v want %+v", i, got[i], flows[i])
		}
	}

	for name, corrupt := range map[string]func([]byte) []byte{
		"short header": func(b []byte) []byte { return b[:ckptHdrLen-1] },
		"bad magic":    func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version":  func(b []byte) []byte { b[2] = 9; return b },
		"trailing":     func(b []byte) []byte { return append(b, 0) },
		"cut flow":     func(b []byte) []byte { return b[:len(b)-1] },
	} {
		mut := corrupt(bytes.Clone(b))
		if _, _, _, err := decodeWire(mut, nil); err == nil {
			t.Errorf("%s: corrupted checkpoint accepted", name)
		}
	}
}

func TestRereplicateCodecRoundTrip(t *testing.T) {
	k := Key{Class: 3, Index: 99}
	flows := []FlowCkpt{
		{Flow: 1, Size: 4, Data: []byte{9, 8, 7, 6}},
		{Flow: 5, Size: 0, Data: nil},
	}
	b := appendFrame(nil, k, flows, 6)
	got, gk, owner, err := decodeWire(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gk != k || owner != 6 || len(got) != len(flows) {
		t.Fatalf("decoded key %+v owner %d, %d flows", gk, owner, len(got))
	}
	for i := range flows {
		if got[i].Flow != flows[i].Flow || got[i].Size != flows[i].Size ||
			!bytes.Equal(got[i].Data, flows[i].Data) {
			t.Fatalf("flow %d: got %+v want %+v", i, got[i], flows[i])
		}
	}

	for name, corrupt := range map[string]func([]byte) []byte{
		"short v2 header": func(b []byte) []byte { return b[:ckptHdrLen2-1] },
		"negative owner":  func(b []byte) []byte { b[6] = 0x80; return b },
		"trailing":        func(b []byte) []byte { return append(b, 0) },
		"cut flow":        func(b []byte) []byte { return b[:len(b)-1] },
	} {
		mut := corrupt(bytes.Clone(b))
		if _, _, _, err := decodeWire(mut, nil); err == nil {
			t.Errorf("%s: corrupted v2 checkpoint accepted", name)
		}
	}
}

// TestDecodeBoundsClaimedFlows is the regression test for a header-only
// frame whose untrusted 16-bit count claims 65,535 flows: the decoder sized
// its flow list from the count (about 2.6 MB) before finding the frame
// empty. It must reject the frame having allocated next to nothing: the
// error message, a few KiB under the race detector.
func TestDecodeBoundsClaimedFlows(t *testing.T) {
	for _, owner := range []int{-1, 3} {
		b := appendFrame(nil, Key{Class: 1, Index: 2}, nil, owner)
		binary.LittleEndian.PutUint16(b[len(b)-2:], 0xFFFF)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := decodeWire(b, nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("owner %d: %d-byte frame claiming 65535 flows accepted", owner, len(b))
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Fatalf("owner %d: rejecting a %d-byte frame allocated %d bytes", owner, len(b), n)
		}
	}
}

// checkDecode is the invariant both fuzzers check on every input that
// decodes. Whatever decodes must re-encode to the identical bytes, and the
// store's copy (newCkpt over the zero-copy parse) must agree with the parse
// flow by flow, in bytes of its own: scrambling the frame afterwards leaves
// the record intact.
func checkDecode(t *testing.T, in []byte) {
	b := bytes.Clone(in)
	flows, k, owner, err := decodeWire(b, nil)
	if err != nil {
		return
	}
	if b[2] == ckptVersion2 && owner < 0 {
		t.Fatalf("v2 frame decoded with owner %d", owner)
	}
	if out := appendFrame(nil, k, flows, owner); !bytes.Equal(out, in) {
		t.Fatalf("decode/encode mismatch: in %x out %x", in, out)
	}
	c := newCkpt(flows, b)
	for i := range b {
		b[i] = ^b[i]
	}
	got := c.appendFlows(nil)
	for _, f := range got {
		if f.Data != nil && len(f.Data) == 0 {
			t.Fatalf("stored flow %d has empty non-nil data", f.Flow)
		}
	}
	if out := appendFrame(nil, k, got, owner); !bytes.Equal(out, in) {
		t.Fatalf("stored record disagrees with the parse: in %x stored %x", in, out)
	}
}

func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(appendFrame(nil, Key{Class: 1, Index: 2}, []FlowCkpt{{Flow: 0, Size: 3, Data: []byte{7, 8, 9}}}, -1))
	f.Add(appendFrame(nil, Key{Class: 1, Index: 2}, []FlowCkpt{{Flow: 0, Size: 3, Data: []byte{7, 8, 9}}, {Flow: 1, Size: 8}}, -1))
	f.Add(appendFrame(nil, Key{}, nil, -1))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, ckptHdrLen+ckptFlowLen))
	f.Fuzz(checkDecode)
}

func FuzzDecodeRereplicate(f *testing.F) {
	f.Add(appendFrame(nil, Key{Class: 1, Index: 2}, []FlowCkpt{{Flow: 0, Size: 3, Data: []byte{7, 8, 9}}}, 4))
	f.Add(appendFrame(nil, Key{}, nil, 0))
	f.Add(appendFrame(nil, Key{Class: -1, Index: 1 << 40}, []FlowCkpt{{Flow: 2, Size: 0}}, 1<<20))
	f.Add([]byte{'C', 'K', ckptVersion2})
	f.Add(bytes.Repeat([]byte{0xFF}, ckptHdrLen2+ckptFlowLen))
	f.Fuzz(checkDecode)
}
