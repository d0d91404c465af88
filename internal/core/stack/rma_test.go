package stack

import (
	"testing"

	"amtlci/internal/buf"
	"amtlci/internal/core"
	"amtlci/internal/sim"
)

// The MPI RMA put transport (the paper's §4.2.2 future work) must satisfy
// the same put semantics as the shipping two-sided emulation.

func buildMPI(useRMA bool) *Stack {
	o := DefaultOptions(MPI, 2)
	o.Fabric.Jitter = 0
	o.MPICE.UseRMA = useRMA
	return Build(o)
}

// checkPut runs one real-bytes put from rank 0 to rank 1 and fails t unless
// both completions fire and the bytes land intact.
func checkPut(t *testing.T, s *Stack, size int64) {
	t.Helper()
	const doneTag core.Tag = 50
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i*13 + 7)
	}
	target := make([]byte, size)
	src, dst := s.Engines[0], s.Engines[1]
	lreg := src.MemReg(buf.FromBytes(payload))
	rreg := dst.MemReg(buf.FromBytes(target))
	localDone, remoteDone := false, false
	for r := 0; r < 2; r++ {
		r := r
		s.Engines[r].TagReg(doneTag, func(_ core.Engine, _ core.Tag, data []byte, from int) {
			if r != 1 || string(data) != "ncb" || from != 0 {
				t.Errorf("bad remote completion at rank %d: %q from %d", r, data, from)
			}
			remoteDone = true
		}, 64)
	}
	src.Submit(0, func() {
		src.Put(core.PutArgs{
			LReg: lreg, RReg: rreg, Size: size, Remote: 1,
			LocalCB: func() { localDone = true },
			RTag:    doneTag, RCBData: []byte("ncb"),
		})
	})
	s.Eng.Run()
	if !localDone || !remoteDone {
		t.Fatalf("put incomplete: local=%v remote=%v", localDone, remoteDone)
	}
	for i := range payload {
		if target[i] != payload[i] {
			t.Fatalf("payload mismatch at %d", i)
		}
	}
}

func TestMPIRMAConformance(t *testing.T) {
	for _, size := range []int64{1, 4 << 10, 256 << 10, 2 << 20} {
		s := buildMPI(true)
		checkPut(t, s, size)
		if n := engineCount(s, "puts_done", 0); n != 1 {
			t.Fatalf("size %d: %d puts done, want 1", size, n)
		}
	}
}

func TestMPIRMAPaysAttachCosts(t *testing.T) {
	// The §4.2.2 caveat: dynamic-window attach/detach is expensive. The RMA
	// variant must charge visibly more communication-thread time for a
	// registration-heavy workload than the two-sided emulation.
	run := func(useRMA bool) sim.Duration {
		s := buildMPI(useRMA)
		dst := s.Engines[1]
		for i := 0; i < 64; i++ {
			h := dst.MemReg(buf.Virtual(1 << 20))
			dst.MemDereg(h)
		}
		s.Eng.Run()
		return s.Engines[1].CommProc().BusyTime()
	}
	twoSided := run(false)
	rma := run(true)
	if rma <= twoSided {
		t.Fatalf("RMA attach/detach cost invisible: rma=%v two-sided=%v", rma, twoSided)
	}
}
