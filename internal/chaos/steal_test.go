package chaos

import (
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/sim"
)

// TestStealUnderFaults: the steal × fault matrix — both workloads, both
// backends, 0.5% and 2% fault rates — must still verify numerically, and
// every run must end with a proven termination announcement, never an
// assumed one.
func TestStealUnderFaults(t *testing.T) {
	for _, backend := range stack.Backends {
		for _, w := range Workloads {
			for _, rate := range []float64{0.005, 0.02} {
				t.Run(backend.String()+"/"+w.String()+"/"+ratePct(rate), func(t *testing.T) {
					res := Run(Opts{
						Backend: backend, Workload: w,
						Faults: faultCfg(rate, 31), Rel: relCfg(),
						Steal: true,
					})
					if res.Err != nil {
						t.Fatalf("steal run aborted: %v", res.Err)
					}
					if !res.Verified {
						t.Fatalf("factor error %g with stealing under faults", res.RelErr)
					}
					if !res.TermAnnounced {
						t.Fatal("run completed without a termination announcement")
					}
				})
			}
		}
	}
}

// TestStealDeterministicReplay: identical steal-enabled options (same fault
// seed) reproduce the execution exactly, the whole registry included.
func TestStealDeterministicReplay(t *testing.T) {
	o := Opts{
		Backend: stack.LCI, Workload: Cholesky,
		Faults: faultCfg(0.02, 99), Rel: relCfg(),
		Steal: true,
	}
	a, b := Run(o), Run(o)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("aborts: %v / %v", a.Err, b.Err)
	}
	requireReplay(t, a, b)
}

// TestStealFlattensPostCrashImbalance is the tentpole acceptance on the
// paper's workload: after a mid-run crash dumps the dead rank's tasks on one
// buddy, work stealing must (a) actually fire, (b) improve the recovered
// makespan, and (c) demonstrably rebalance the per-rank busy time — all
// while the detector still proves termination.
//
// The run is placed in the paper's compute-dominant regime (TaskScale scales
// the chaos mini-problem's kernels back up to where worker busy time, not
// network latency, bounds the makespan; one worker per rank gives the DAG
// width for migrated tasks to overlap). In the unscaled mini-problem the
// makespan is latency-bound and no scheduling policy can move it.
func TestStealFlattensPostCrashImbalance(t *testing.T) {
	const scale, workers = 300, 1
	for _, backend := range stack.Backends {
		t.Run(backend.String(), func(t *testing.T) {
			heavy := Run(Opts{Backend: backend, Workload: HiCMA, TaskScale: scale, Workers: workers})
			if heavy.Err != nil || !heavy.Verified {
				t.Fatalf("scaled fault-free baseline broken: %+v", heavy)
			}
			crash := CrashSpec{Rank: 1, At: heavy.Makespan * 2 / 5}
			base := Run(Opts{
				Backend: backend, Workload: HiCMA, TaskScale: scale, Workers: workers,
				Crash: &crash, Recover: true,
			})
			res := Run(Opts{
				Backend: backend, Workload: HiCMA, TaskScale: scale, Workers: workers,
				Crash: &crash, Recover: true,
				Steal: true,
			})
			for name, r := range map[string]Result{"no-steal": base, "steal": res} {
				if r.Err != nil {
					t.Fatalf("%s crash run aborted: %v", name, r.Err)
				}
				if !r.Verified {
					t.Fatalf("%s factor error %g after recovery", name, r.RelErr)
				}
				if n := r.Metrics.Total("parsec", "restarts"); n != 1 {
					t.Fatalf("%s restarts = %d, want 1", name, n)
				}
				if !r.TermAnnounced {
					t.Fatalf("%s run completed without a termination announcement", name)
				}
			}
			if n := base.Metrics.Total("parsec", "steals"); n != 0 {
				t.Fatalf("no-steal run recorded %d steals", n)
			}
			if res.Metrics.Total("parsec", "steals") == 0 {
				t.Fatal("post-crash imbalance triggered zero steals")
			}
			if res.Makespan >= base.Makespan {
				t.Fatalf("stealing did not improve the recovered makespan: %v (steal) vs %v (no steal)",
					res.Makespan, base.Makespan)
			}
			// Rebalance evidence: the busy-time spread across surviving ranks
			// (max−min over the idle survivors vs the overloaded buddy) must
			// shrink when stealing is on.
			spread := func(r Result) sim.Duration {
				min, max := sim.Duration(1<<62), sim.Duration(0)
				for rank, busy := range r.WorkerBusy {
					if rank == crash.Rank {
						continue // the crashed rank's truncated busy time is noise
					}
					if busy < min {
						min = busy
					}
					if busy > max {
						max = busy
					}
				}
				return max - min
			}
			if ss, bs := spread(res), spread(base); ss >= bs {
				t.Fatalf("stealing did not shrink the busy-time spread: %v (steal) vs %v (no steal)", ss, bs)
			}
		})
	}
}

// TestStealCrashUnderFaults: stealing, a mid-run crash, and 0.5% fault rates
// together — the full chaos stack — still converge to a verified factor with
// announced termination on both backends and both workloads.
func TestStealCrashUnderFaults(t *testing.T) {
	for _, backend := range stack.Backends {
		for _, w := range Workloads {
			t.Run(backend.String()+"/"+w.String(), func(t *testing.T) {
				crash := midRunCrash(t, backend, w)
				res := Run(Opts{
					Backend: backend, Workload: w,
					Faults: faultCfg(0.005, 17), Rel: relCfg(),
					Crash: &crash, Recover: true,
					Steal: true,
				})
				if res.Err != nil {
					t.Fatalf("aborted: %v", res.Err)
				}
				if !res.Verified {
					t.Fatalf("factor error %g", res.RelErr)
				}
				if n := res.Metrics.Total("parsec", "restarts"); n != 1 {
					t.Fatalf("restarts = %d, want 1", n)
				}
				if !res.TermAnnounced {
					t.Fatal("no termination announcement")
				}
			})
		}
	}
}
