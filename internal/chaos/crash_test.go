package chaos

import (
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/sim"
)

// midRunCrash places the crash at ~40% of the workload's fault-free
// makespan: late enough that completed tasks (and their checkpoints) exist,
// early enough that plenty of work is lost with the rank.
func midRunCrash(t *testing.T, backend stack.Backend, w Workload) CrashSpec {
	t.Helper()
	base := Run(Opts{Backend: backend, Workload: w})
	if base.Err != nil || !base.Verified {
		t.Fatalf("fault-free baseline broken: %+v", base)
	}
	return CrashSpec{Rank: 1, At: base.Makespan * 2 / 5}
}

// TestCrashRecoveryCompletes is the tentpole acceptance: both workloads on
// both backends survive a mid-run rank crash — the survivors detect the
// death by lease expiry, the buddy adopts the dead rank's tasks, and the
// factorization still verifies numerically.
func TestCrashRecoveryCompletes(t *testing.T) {
	for _, backend := range stack.Backends {
		for _, w := range Workloads {
			t.Run(backend.String()+"/"+w.String(), func(t *testing.T) {
				crash := midRunCrash(t, backend, w)
				res := Run(Opts{
					Backend: backend, Workload: w,
					Crash: &crash, Recover: true,
				})
				if res.Err != nil {
					t.Fatalf("graph aborted despite recovery: %v", res.Err)
				}
				if !res.Verified {
					t.Fatalf("factor error %g after recovery", res.RelErr)
				}
				m := res.Metrics
				if n := m.Total("parsec", "restarts"); n != 1 {
					t.Fatalf("restarts = %d, want exactly 1", n)
				}
				if m.Total("rel", "peer_dead") == 0 {
					t.Fatal("no lease-expiry verdicts despite a crash")
				}
				if sent, stored := m.Total("recover", "ckpt_sent"), m.Total("recover", "ckpt_stored"); sent == 0 || stored == 0 {
					t.Fatalf("checkpoint traffic idle: sent=%d stored=%d", sent, stored)
				}
				if m.Total("parsec", "tasks_restored") == 0 {
					t.Fatal("restart restored no tasks from checkpoints")
				}
				if n := m.Total("fabric", "crashes"); n != 1 {
					t.Fatalf("fabric crash count = %d, want 1", n)
				}
			})
		}
	}
}

// TestCrashRecoveryDeterministic: the same crash replayed from the same
// options reproduces the execution exactly — makespan and the whole registry.
func TestCrashRecoveryDeterministic(t *testing.T) {
	crash := midRunCrash(t, stack.LCI, Cholesky)
	o := Opts{
		Backend: stack.LCI, Workload: Cholesky,
		Crash: &crash, Recover: true,
	}
	a, b := Run(o), Run(o)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("aborts: %v / %v", a.Err, b.Err)
	}
	requireReplay(t, a, b)
}

// TestRecoveryOverheadWithoutCrash: arming recovery (heartbeats +
// checkpointing) on a healthy run must not break anything and must cost a
// bounded slowdown — checkpoints ride the same fabric as the workload.
func TestRecoveryOverheadWithoutCrash(t *testing.T) {
	for _, backend := range stack.Backends {
		t.Run(backend.String(), func(t *testing.T) {
			base := Run(Opts{Backend: backend, Workload: Cholesky})
			if base.Err != nil || !base.Verified {
				t.Fatalf("fault-free baseline broken: %+v", base)
			}
			res := Run(Opts{Backend: backend, Workload: Cholesky, Recover: true})
			if res.Err != nil || !res.Verified {
				t.Fatalf("recovery-armed healthy run broken: %+v", res)
			}
			if n := res.Metrics.Total("parsec", "restarts"); n != 0 {
				t.Fatalf("spurious restart on a healthy run: %d", n)
			}
			if n := res.Metrics.Total("rel", "peer_dead"); n != 0 {
				t.Fatalf("false-positive death verdicts: %d", n)
			}
			if res.Metrics.Total("recover", "ckpt_sent") == 0 {
				t.Fatal("recovery armed but no checkpoints streamed")
			}
			if limit := 3 * base.Makespan; res.Makespan > limit {
				t.Fatalf("recovery overhead unbounded: %v armed vs %v clean",
					res.Makespan, base.Makespan)
			}
		})
	}
}

// TestCrashWithoutRecoveryAborts: with the reliability layer but no recovery
// armed, a crashed rank surfaces as a clean graph abort (retry exhaustion →
// peer unreachable), never a hang.
func TestCrashWithoutRecoveryAborts(t *testing.T) {
	for _, backend := range stack.Backends {
		t.Run(backend.String(), func(t *testing.T) {
			res := Run(Opts{
				Backend: backend, Workload: Cholesky,
				Crash: &CrashSpec{Rank: 1, At: 200 * sim.Microsecond},
				Rel:   relCfg(),
			})
			if res.Err == nil {
				t.Fatal("rank crashed without recovery but the graph claims success")
			}
		})
	}
}

// TestCrashSpecDoesNotMutateCallerFaults: the crash must be appended to a
// copy of the caller's fault config, or a shared config grows one crash per
// run and replay breaks.
func TestCrashSpecDoesNotMutateCallerFaults(t *testing.T) {
	fc := faultCfg(0.005, 11)
	crash := CrashSpec{Rank: 1, At: 200 * sim.Microsecond}
	o := Opts{
		Backend: stack.LCI, Workload: Cholesky,
		Faults: fc, Rel: relCfg(),
		Crash: &crash, Recover: true,
	}
	Run(o)
	if len(fc.Crashes) != 0 {
		t.Fatalf("caller's fault config mutated: %d crashes appended", len(fc.Crashes))
	}
}
