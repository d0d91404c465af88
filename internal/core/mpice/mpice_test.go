package mpice

import (
	"runtime"
	"testing"
	"weak"

	"amtlci/internal/buf"
	"amtlci/internal/core"
	"amtlci/internal/fabric"
	"amtlci/internal/mpi"
	"amtlci/internal/sim"
)

func harness(n int, cfg Config) (*sim.Engine, []*Engine) {
	eng := sim.NewEngine()
	fc := fabric.DefaultConfig()
	fc.Jitter = 0
	fab, err := fabric.New(eng, n, fc)
	if err != nil {
		panic(err)
	}
	w := mpi.NewWorld(eng, fab, mpi.DefaultConfig())
	engines := make([]*Engine, n)
	for i := range engines {
		engines[i] = New(eng, w, i, cfg)
	}
	return eng, engines
}

func regDone(engines []*Engine, tag core.Tag, count *int) {
	for _, e := range engines {
		e.TagReg(tag, func(core.Engine, core.Tag, []byte, int) { *count++ }, 64)
	}
}

func TestTransferCapDefersSendsFIFO(t *testing.T) {
	// §4.2.2: beyond MaxTransfers concurrent transfers, sends are deferred
	// and started in FIFO order as slots free.
	cfg := DefaultConfig()
	cfg.MaxTransfers = 4
	eng, engines := harness(2, cfg)
	src, dst := engines[0], engines[1]
	const doneTag core.Tag = 9
	done := 0
	regDone(engines, doneTag, &done)
	const n = 24
	var lr, rr []core.MemHandle
	for i := 0; i < n; i++ {
		lr = append(lr, src.MemReg(buf.Virtual(128<<10)))
		rr = append(rr, dst.MemReg(buf.Virtual(128<<10)))
	}
	src.Submit(0, func() {
		for i := 0; i < n; i++ {
			i := i
			src.Put(core.PutArgs{LReg: lr[i], RReg: rr[i], Size: 128 << 10, Remote: 1, RTag: doneTag})
		}
	})
	eng.Run()
	if done != n {
		t.Fatalf("completed %d puts, want %d", done, n)
	}
	if src.Deferred.Value() == 0 {
		t.Fatal("no sends deferred despite cap 4")
	}
}

// TestRefillReleasesDeferredPuts checks that a deferred put leaves nothing of
// itself behind in the deferral queue once it has started: its completion
// callback, and the record the callback names, are collectable when the run
// is over, while the engine itself lives on.
func TestRefillReleasesDeferredPuts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxTransfers = 2
	eng, engines := harness(2, cfg)
	src, dst := engines[0], engines[1]
	const doneTag core.Tag = 9
	done := 0
	regDone(engines, doneTag, &done)
	type putRecord struct {
		completed bool
		_         [64]byte
	}
	const n = 8
	var last weak.Pointer[putRecord]
	src.Submit(0, func() {
		for i := 0; i < n; i++ {
			rec := &putRecord{}
			if i == n-1 {
				last = weak.Make(rec)
			}
			src.Put(core.PutArgs{
				LReg: src.MemReg(buf.Virtual(128 << 10)), RReg: dst.MemReg(buf.Virtual(128 << 10)),
				Size: 128 << 10, Remote: 1, RTag: doneTag,
				LocalCB: func() { rec.completed = true },
			})
		}
	})
	eng.Run()
	if done != n || src.Deferred.Value() == 0 {
		t.Fatalf("completed %d puts with %d deferred, want %d with some deferred", done, src.Deferred.Value(), n)
	}
	runtime.GC()
	if last.Value() != nil {
		t.Fatal("the engine still holds the last deferred put's completion callback after the run")
	}
	runtime.KeepAlive(src)
}

func TestPersistentReceiveCountHonored(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PersistentPerTag = 2
	_, engines := harness(2, cfg)
	e := engines[0]
	before := len(e.amSlots)
	e.TagReg(42, func(core.Engine, core.Tag, []byte, int) {}, 64)
	if got := len(e.amSlots) - before; got != 2 {
		t.Fatalf("registered %d persistent receives, want 2", got)
	}
}

func TestAMOverflowBeyondPersistentReceives(t *testing.T) {
	// More concurrent AMs than persistent receives: the overflow waits in
	// the unexpected queue and is still delivered after re-arms.
	cfg := DefaultConfig()
	cfg.PersistentPerTag = 1
	eng, engines := harness(2, cfg)
	const tag core.Tag = 11
	got := 0
	regDone(engines, tag, &got)
	for i := 0; i < 20; i++ {
		engines[0].SendAM(tag, 1, []byte{byte(i)})
	}
	eng.Run()
	if got != 20 {
		t.Fatalf("delivered %d AMs, want 20", got)
	}
}

func TestGlobalArrayCompaction(t *testing.T) {
	// After a burst completes, the transfer array must shrink back so later
	// Testsome costs reflect only live requests.
	eng, engines := harness(2, DefaultConfig())
	src, dst := engines[0], engines[1]
	const doneTag core.Tag = 13
	done := 0
	regDone(engines, doneTag, &done)
	for i := 0; i < 10; i++ {
		l := src.MemReg(buf.Virtual(64 << 10))
		r := dst.MemReg(buf.Virtual(64 << 10))
		src.Submit(0, func() {
			src.Put(core.PutArgs{LReg: l, RReg: r, Size: 64 << 10, Remote: 1, RTag: doneTag})
		})
	}
	eng.Run()
	if done != 10 {
		t.Fatalf("done = %d", done)
	}
	if n := len(src.xfer); n != 0 {
		t.Fatalf("transfer array holds %d entries after drain", n)
	}
	if n := len(dst.xfer); n != 0 {
		t.Fatalf("target transfer array holds %d entries after drain", n)
	}
}
