package fabric

import (
	"runtime"
	"testing"

	"amtlci/internal/sim"
)

// bounce delivers n virtual-payload messages of size bytes between ranks 0
// and 1 of f, one at a time: each arrival sends the same message object back.
// It returns the heap allocations the run made.
func bounce(f *Fabric, dom sim.Domain, size int64, n int) uint64 {
	left := n
	turn := func(m *Message) {
		if left--; left > 0 {
			m.Src, m.Dst = m.Dst, m.Src
			f.Send(m)
		}
	}
	f.SetHandler(0, turn)
	f.SetHandler(1, turn)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f.Send(&Message{Src: 0, Dst: 1, Size: size})
	dom.Run()
	runtime.ReadMemStats(&after)
	if left != 0 {
		panic("bounce: messages lost")
	}
	return after.Mallocs - before.Mallocs
}

// TestDeliveryAllocatesNothing pins the steady-state delivery path of both
// lanes at zero allocations per message, on the serial engine and — the case
// that used to drop its transfer state for the GC — across two shards, where
// every message is taken from one shard's free list and retired into the
// other's. The difference between a long and a short run on a warm fabric
// cancels what a run pays once (the message, Parallel's runner goroutines).
func TestDeliveryAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig()
	domains := map[string]func() sim.Domain{
		"serial":      func() sim.Domain { return sim.NewEngine() },
		"cross-shard": func() sim.Domain { return sim.NewParallel(2, 2, Lookahead(cfg)) },
	}
	lanes := map[string]int64{"ctl": 1 << 10, "bulk": 64 << 10}
	for dname, mk := range domains {
		for lane, size := range lanes {
			t.Run(dname+"/"+lane, func(t *testing.T) {
				dom := mk()
				f, err := New(dom, 2, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Warm-up: fill the free lists and the engines' event pools.
				bounce(f, dom, size, 60000)
				short := bounce(f, dom, size, 2000)
				long := bounce(f, dom, size, 6000)
				if per := float64(int64(long)-int64(short)) / 4000; per > 0.01 {
					t.Fatalf("%.3f allocs/message, want 0", per)
				}
			})
		}
	}
}

// TestTransferStateRetiredOnce pins the double-retire check: a second
// putXfer of the same object must fail loudly instead of handing one xfer to
// two messages.
func TestTransferStateRetiredOnce(t *testing.T) {
	eng := sim.NewEngine()
	f := mustNew(eng, 2, quietConfig())
	m := &Message{Src: 0, Dst: 1, Size: 8}
	x := f.getXfer(m)
	f.putXfer(x, f.ports[1])
	defer func() {
		if recover() == nil {
			t.Fatal("second retire of one xfer did not panic")
		}
	}()
	f.putXfer(x, f.ports[1])
}
