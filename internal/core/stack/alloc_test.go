package stack

import (
	"testing"

	"amtlci/internal/buf"
	"amtlci/internal/core"
)

// TestEngineMessagePathAllocs pins the steady-state cost of the two
// operations of the communication-engine API, through the whole stack below
// it (engine, library, fabric), at zero allocations on both backends: a
// 32-byte active message and a 32 KiB put with a virtual payload and a remote
// completion, one at a time and in a burst of 64 of each in flight at once.
// Every deferred step runs on a pooled record with its func() bound once;
// payloads are copied into slabs the records keep. The free lists keep every
// record for the run, so a burst pays for its in-flight peak once, not at
// every burst.
func TestEngineMessagePathAllocs(t *testing.T) {
	const (
		amTag   core.Tag = 100
		doneTag core.Tag = 101
		size             = 32 << 10
		burst            = 64
	)
	forEachBackend(t, func(t *testing.T, s *Stack) {
		delivered := 0
		for _, e := range s.Engines {
			count := func(core.Engine, core.Tag, []byte, int) { delivered++ }
			e.TagReg(amTag, count, 64)
			e.TagReg(doneTag, count, 64)
		}
		src := s.Engines[0]
		payload := make([]byte, 32)
		lreg := src.MemReg(buf.Virtual(size))
		rreg := s.Engines[1].MemReg(buf.Virtual(size))
		localDone := func() { delivered++ }
		am := func() { src.SendAM(amTag, 1, payload) }
		put := func() {
			src.Put(core.PutArgs{LReg: lreg, RReg: rreg, Size: size, Remote: 1,
				LocalCB: localDone, RTag: doneTag, RCBData: payload})
		}
		ops := map[string]struct {
			want, warm, runs int
			body             func()
		}{
			"am":  {1, 20000, 2000, am},
			"put": {2, 20000, 2000, put},
			"burst": {3 * burst, 100, 100, func() {
				for i := 0; i < burst; i++ {
					am()
					put()
				}
			}},
		}
		for name, op := range ops {
			one := func() {
				before := delivered
				src.Submit(0, op.body)
				s.Eng.Run()
				if delivered-before != op.want {
					t.Fatalf("%s: %d completions, want %d", name, delivered-before, op.want)
				}
			}
			// Warm-up: fill the free lists and the event pool.
			for i := 0; i < op.warm; i++ {
				one()
			}
			if got := testing.AllocsPerRun(op.runs, one); got > 0.01 {
				t.Errorf("%s: %.3f allocs/op, want 0", name, got)
			}
		}
	})
}
