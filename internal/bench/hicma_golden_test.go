package bench

import (
	"fmt"
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/hicma"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
)

// hicmaFingerprint is everything the simulated system exposes about one run
// that must not move when only the simulator's own bookkeeping changes.
type hicmaFingerprint struct {
	makespan sim.Duration // virtual time-to-solution, picoseconds
	events   uint64       // simulation events fired, summed over shards
	msgs     uint64       // fabric messages sent
}

func hicmaFingerprintOf(t *testing.T, b stack.Backend, shards int, steal bool) hicmaFingerprint {
	t.Helper()
	const n, nb, nodes = 24000, 1200, 8
	so := stack.DefaultOptions(b, nodes)
	so.Shards = shards
	s := stack.Build(so)
	cfg := parsec.DefaultConfig(WorkersFor(b, nodes))
	cfg.FetchCap = 64
	cfg.Steal = steal
	cfg.Metrics = s.Metrics
	rt := parsec.New(s.Dom, s.Engines, hicma.NewVirtual(hicma.DefaultParams(n, nb), nodes), cfg)
	d, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	fp := hicmaFingerprint{makespan: d, msgs: s.Metrics.Total("fabric", "msgs_sent")}
	if par, ok := s.Dom.(*sim.Parallel); ok {
		fp.events = par.Fired()
	} else {
		fp.events = s.Eng.Fired()
	}
	return fp
}

// TestHiCMAGolden pins a small virtual HiCMA run to literals: makespan,
// event count and wire message count, for both backends, with and without
// work stealing, on the serial engine and on two shards. The differential
// tests next to this one prove configurations equal to EACH OTHER; this one
// proves them equal to what the model produced when the literals were
// recorded, so a change that claims to leave virtual time bit-identical
// (a data-structure swap in the runtime, a queue rewrite in the engine) is
// held to it by `make verify`. A change that means to move the model
// re-records the literals and says so.
func TestHiCMAGolden(t *testing.T) { checkHiCMAGolden(t) }

// TestHiCMAGoldenWithPoisonedRecords repeats the golden runs with
// sim.PoisonRetired: no free list hands a record out twice, so a retired
// record (a message-path step, a runtime flow copy) stays zeroed and dead
// and any layer that touched one — in particular across the shard boundary,
// where the receiver retires what the sender took, under the race detector
// in `make verify` — would panic, race or move the fingerprint. Reuse must be invisible: the literals are the
// same. (Faults, retransmission and crash eviction: TestRecordRetirementSafety
// in internal/chaos.)
func TestHiCMAGoldenWithPoisonedRecords(t *testing.T) {
	sim.PoisonRetired = true
	defer func() { sim.PoisonRetired = false }()
	checkHiCMAGolden(t)
}

func checkHiCMAGolden(t *testing.T) {
	golden := map[string]hicmaFingerprint{
		"LCI/steal=false":      {572802763345, 30106, 4512},
		"LCI/steal=true":       {572867596148, 52229, 7583},
		"Open MPI/steal=false": {581670247505, 32405, 4422},
		"Open MPI/steal=true":  {581804061809, 57788, 7474},
	}
	for _, b := range stack.Backends {
		for _, steal := range []bool{false, true} {
			name := fmt.Sprintf("%v/steal=%v", b, steal)
			for _, shards := range []int{1, 2} {
				// Printed in the literal's own syntax, for re-recording.
				if got, want := hicmaFingerprintOf(t, b, shards, steal), golden[name]; got != want {
					t.Errorf("shards=%d: got %q: {%d, %d, %d}, golden %+v",
						shards, name, got.makespan, got.events, got.msgs, want)
				}
			}
		}
	}
}
