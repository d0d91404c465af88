package chaos

import (
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/fabric"
	"amtlci/internal/rel"
	"amtlci/internal/sim"
)

// TestRecordRetirementSafety proves that no layer of the message path — nor
// the runtime, whose dataflow records sit on a sim.FreeList too — touches a
// record after retiring it, where that is hardest: real payloads moving
// through record-owned buffers, under 2% drop + duplicate + corrupt + reorder
// faults with the reliability layer retransmitting frames whose records the
// receiver has long retired, and through a mid-run crash with PeerDeath
// eviction purging in-flight records and a restart abandoning every flow
// record of the old epoch. Each scenario runs twice — with free
// lists recycling as usual, and with sim.PoisonRetired, where a retired
// record stays zeroed and dead for good, so any use of one panics or
// corrupts the result. Reuse must be invisible: both runs verify and agree
// on the makespan and on every counter. (The sharded twin of this test is
// TestHiCMAGoldenWithPoisonedRecords in internal/bench.)
func TestRecordRetirementSafety(t *testing.T) {
	for _, backend := range stack.Backends {
		for _, w := range Workloads {
			crash := midRunCrash(t, backend, w)
			rc := rel.DefaultConfig()
			scenarios := map[string]Opts{
				"faults": {Backend: backend, Workload: w, Rel: &rc,
					Faults: &fabric.FaultConfig{Drop: 0.02, Duplicate: 0.02, Corrupt: 0.02, Reorder: 0.02, Seed: DefaultSeed}},
				"crash": {Backend: backend, Workload: w, Crash: &crash, Recover: true},
			}
			for name, o := range scenarios {
				t.Run(backend.String()+"/"+w.String()+"/"+name, func(t *testing.T) {
					recycled := Run(o)
					sim.PoisonRetired = true
					poisoned := Run(o)
					sim.PoisonRetired = false
					if recycled.Err != nil || !recycled.Verified || poisoned.Err != nil || !poisoned.Verified {
						t.Fatalf("runs did not verify:\n recycled %+v\n poisoned %+v", recycled, poisoned)
					}
					if d := resultDiff(recycled, poisoned); d != "" {
						t.Fatalf("record reuse changed the run (recycled vs poisoned): %s", d)
					}
				})
			}
		}
	}
}
