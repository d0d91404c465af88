package rel

import (
	"fmt"
	"runtime"
	"testing"

	"amtlci/internal/fabric"
	"amtlci/internal/metrics"
	"amtlci/internal/sim"
)

// stream sends n data messages from rank 0 to rank 1 of a fault-free s, one
// at a time: each delivery sends the next, reusing one upper-layer message
// (the layer copies what it needs at Send). It returns the heap allocations
// the run made.
func stream(eng *sim.Engine, s *Stack, n int) uint64 {
	m := &fabric.Message{Src: 0, Dst: 1, Size: 1 << 10}
	left := n
	s.SetHandler(1, func(*fabric.Message) {
		if left--; left > 0 {
			s.Send(m)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Send(m)
	eng.Run()
	runtime.ReadMemStats(&after)
	if left != 0 {
		panic("stream: messages lost")
	}
	return after.Mallocs - before.Mallocs
}

// TestSteadyStateAllocatesNothing pins the fault-free data path — framing,
// checksum, retransmit timer armed and cancelled, delayed cumulative ACK, the
// message handed up — at zero allocations per message: the entry, its
// transmission and the ACK are pooled records with their callbacks bound
// once, and the upper layer gets one scratch message per endpoint. The
// difference between a long and a short run on a warm stack cancels what a
// run pays once.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	eng, _, s := pairStack(t, 2, nil)
	s.SetHandler(0, func(*fabric.Message) {})
	stream(eng, s, 20000)
	short := stream(eng, s, 2000)
	long := stream(eng, s, 6000)
	if per := float64(int64(long)-int64(short)) / 4000; per > 0.01 {
		t.Fatalf("%.3f allocs/message, want 0", per)
	}
	if s.Metrics().Total("rel", "acks_sent") == 0 {
		t.Fatal("no ACK was sent: the run does not exercise the ACK path")
	}
}

// TestPoisonedRecordsChangeNothing runs a faulted exchange — 2% drop,
// duplication, corruption and reordering on every link, heartbeats armed —
// with the free lists recycling and with sim.PoisonRetired, where a retired
// record is never handed out again and stays zeroed. The delivery trace and
// every counter of the registry must be the same: no layer path reads a
// wire, ACK, heartbeat or entry record after retiring it.
func TestPoisonedRecordsChangeNothing(t *testing.T) {
	run := func(poison bool) (string, *metrics.Registry) {
		sim.PoisonRetired = poison
		defer func() { sim.PoisonRetired = false }()
		const ranks, steps, waves, burst = 4, 400, 6, 2
		const total = burst * (2*steps + waves*ranks*(ranks-1))
		eng, _, s := hbStack(t, ranks, &fabric.FaultConfig{
			Drop: 0.02, Duplicate: 0.02, Corrupt: 0.02, Reorder: 0.02, Seed: 5,
			// Duplicates trail by more than a round trip, so a late copy
			// arrives after its entry was ACKed, retired and reused.
			DupDelay: 20 * sim.Microsecond,
		})
		var trace []byte
		delivered := 0
		for r := 0; r < ranks; r++ {
			r := r
			s.SetHandler(r, func(m *fabric.Message) {
				trace = fmt.Appendf(trace, "%v %d<%d:%v;", eng.Now(), r, m.Src, m.Meta)
				if delivered++; delivered == total {
					s.StopHeartbeats()
				}
			})
		}
		send := func(src, dst, id int) {
			for i := 0; i < burst; i++ { // a burst, so a reordered frame arrives early
				s.Send(&fabric.Message{Src: src, Dst: dst, Size: 96, Meta: id})
			}
		}
		// A steady stream between ranks 0 and 1, which keeps records cycling
		// through the free lists ...
		for i := 0; i < steps; i++ {
			i := i
			eng.At(sim.Time(0).Add(sim.Duration(i)*5*sim.Microsecond), func() {
				send(0, 1, i)
				send(1, 0, i)
			})
		}
		// ... and waves on every link two heartbeat periods apart, so beacons
		// cover the links that are idle in between.
		for w := 0; w < waves; w++ {
			w := w
			eng.At(sim.Time(0).Add(sim.Duration(w)*600*sim.Microsecond), func() {
				for src := 0; src < ranks; src++ {
					for dst := 0; dst < ranks; dst++ {
						if src != dst {
							send(src, dst, -w)
						}
					}
				}
			})
		}
		eng.Run()
		if delivered != total {
			t.Fatalf("poison=%v: delivered %d of %d", poison, delivered, total)
		}
		return string(trace), s.Metrics()
	}
	trace, reg := run(false)
	poisonedTrace, poisonedReg := run(true)
	if trace != poisonedTrace {
		t.Fatal("the delivery trace changed with poisoned records")
	}
	if d := metrics.Diff(reg, poisonedReg); d != "" {
		t.Fatalf("the registry changed with poisoned records: %s", d)
	}
	for _, name := range []string{"retransmits", "dup_dropped", "corrupt_dropped", "out_of_order", "heartbeats_received"} {
		if reg.Total("rel", name) == 0 {
			t.Errorf("rel/%s = 0: the run does not exercise that path", name)
		}
	}
}
