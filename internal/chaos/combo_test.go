package chaos

import (
	"flag"
	"fmt"
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/fabric"
	"amtlci/internal/sim"
)

var (
	comboSeeds = flag.Int("combo.seeds", 128, "TestCombinations: how many seeds to scan, from 0")
	comboSeed  = flag.Int("combo.seed", -1, "TestCombinations: replay this one seed")
)

// combo is the configuration one seed picks.
type combo struct {
	o      Opts
	poison bool
}

// comboOf derives seed's configuration: workload and backend, each fault
// class's rate (0, 0.5% or 2%) with a fault seed, a cascade of zero to two
// crashes (recovery on, or else on or off at random), task scale, stealing
// on or off, and sim.PoisonRetired on or off. base gives the fault-free
// makespan a cascade is placed against.
func comboOf(seed uint64, base func(stack.Backend, Workload, float64) sim.Duration) combo {
	rng := sim.NewRNG(seed)
	next := func(n int) int { return int(rng.Uint64() % uint64(n)) }
	rates := []float64{0, 0.005, 0.02}
	var c combo
	c.o.Backend = stack.Backends[next(2)]
	c.o.Workload = Workloads[next(2)]
	c.o.TaskScale = []float64{1, 8}[next(2)]
	fc := &fabric.FaultConfig{Drop: rates[next(3)], Duplicate: rates[next(3)],
		Corrupt: rates[next(3)], Reorder: rates[next(3)], Seed: uint64(next(1 << 30))}
	if fc.Drop+fc.Duplicate+fc.Corrupt+fc.Reorder > 0 {
		c.o.Faults, c.o.Rel = fc, relCfg()
	}
	if k := []int{0, 0, 1, 2}[next(4)]; k > 0 {
		c.o.Crashes = Storm(seed, k, base(c.o.Backend, c.o.Workload, c.o.TaskScale))
		c.o.Recover = true
	} else {
		c.o.Recover = next(2) == 1
	}
	c.o.Steal = next(2) == 1
	c.poison = next(2) == 1
	return c
}

func (c combo) String() string {
	return fmt.Sprintf("%v %v scale %g faults %+v crashes %v recover %v steal %v poison %v",
		c.o.Backend, c.o.Workload, c.o.TaskScale, c.o.Faults, c.o.Crashes, c.o.Recover, c.o.Steal, c.poison)
}

// check runs c and returns the first broken invariant, or "".
func (c combo) check() string {
	sim.PoisonRetired = c.poison
	res := Run(c.o)
	sim.PoisonRetired = false
	m := res.Metrics
	switch {
	case res.Err != nil:
		// Run fails a run that did not announce termination or whose
		// counted messages do not balance; a factor that does not verify
		// fails here too.
		return fmt.Sprintf("run failed: %v", res.Err)
	case !res.TermAnnounced || !res.Verified:
		return fmt.Sprintf("announced=%v verified=%v", res.TermAnnounced, res.Verified)
	}
	if c.o.Recover { // the heartbeats and their stall watch run only here
		if n := m.Total("rel", "hb_stall_stops"); n != 0 {
			return fmt.Sprintf("rel/hb_stall_stops = %d: the run was stopped, not announced", n)
		}
		// Every checkpoint frame shipped is stored at most once, and exactly
		// once without a crash; the only stores without a frame are the
		// stolen completions a thief files itself, one per stolen task.
		sent, stored := m.Total("recover", "ckpt_sent"), m.Total("recover", "ckpt_stored")
		stolen := m.Total("parsec", "steal_tasks")
		switch {
		case m.Total("recover", "ckpt_bad") != 0:
			return "a checkpoint frame arrived corrupted"
		case stored > sent+stolen:
			return fmt.Sprintf("checkpoints: %d stored of %d sent, %d stolen tasks", stored, sent, stolen)
		case len(c.o.Crashes) == 0 && stored < sent:
			return fmt.Sprintf("checkpoints: %d stored of %d sent without a crash", stored, sent)
		}
	}
	return ""
}

// TestCombinations runs one feature combination per seed — workload,
// backend, fault rates, crash cascade, stealing and sim.PoisonRetired, all
// picked by the seed — and checks every run for an announced termination
// that the stall watch never had to force, a verified factorization,
// balanced counted messages, and balanced checkpoint accounting. It runs
// serially: sim.PoisonRetired is process-wide.
//
//	go test ./internal/chaos -run TestCombinations -args -combo.seeds=2000  # wider scan
//	go test ./internal/chaos -run TestCombinations -args -combo.seed=S      # replay seed S
func TestCombinations(t *testing.T) {
	makespans := map[string]sim.Duration{}
	base := func(b stack.Backend, w Workload, scale float64) sim.Duration {
		k := fmt.Sprint(b, w, scale)
		if _, ok := makespans[k]; !ok {
			r := Run(Opts{Backend: b, Workload: w, TaskScale: scale})
			if r.Err != nil {
				t.Fatalf("fault-free %v %v baseline: %v", b, w, r.Err)
			}
			makespans[k] = r.Makespan
		}
		return makespans[k]
	}
	first, last := 0, *comboSeeds
	if *comboSeed >= 0 {
		first, last = *comboSeed, *comboSeed+1
	}
	for seed := first; seed < last; seed++ {
		c := comboOf(uint64(seed), base)
		if msg := c.check(); msg != "" {
			t.Errorf("seed %d (%v): %s\n  replay: go test ./internal/chaos -run TestCombinations -args -combo.seed=%d",
				seed, c, msg, seed)
		}
	}
}
