package chaos

import (
	"strconv"
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/metrics"
	"amtlci/internal/sim"
)

// Multi-crash acceptance: the runtime must survive cascading fail-stop
// failures — staggered crashes across recovery rounds, a buddy pair dying
// together (taking a whole checkpoint replica set with it), and a crash
// landing inside an earlier crash's recovery window — and still drive both
// workloads to a numerically verified factorization on both backends.
//
// The crash times are derived, not guessed: the second crash is placed just
// before the single-crash recovered run would have finished, which
// guarantees it interrupts the re-execution of the first crash's lost work
// (the run is still alive there by construction). Detection takes a full
// lease (~2ms), so every derived instant is deterministic per Opts.

// staggeredCrashes returns a two-crash cascade for the workload: rank 1 at
// ~40% of the fault-free makespan, then rank 2 just before the moment the
// single-crash recovered run would have completed — i.e. mid-way through
// re-executing rank 1's lost work, after the first restart round retired.
func staggeredCrashes(t *testing.T, o Opts) []CrashSpec {
	t.Helper()
	base := Run(o)
	if base.Err != nil || !base.Verified {
		t.Fatalf("fault-free baseline broken: %+v", base)
	}
	c1 := CrashSpec{Rank: 1, At: base.Makespan * 2 / 5}
	o1 := o
	o1.Crashes, o1.Recover = []CrashSpec{c1}, true
	m1 := Run(o1)
	if m1.Err != nil || !m1.Verified {
		t.Fatalf("single-crash recovery broken: %+v", m1)
	}
	return []CrashSpec{c1, {Rank: 2, At: m1.Makespan - 60*sim.Microsecond}}
}

// TestTwoStaggeredCrashesComplete: rank 1 dies mid-run, recovery restarts,
// and rank 2 — by then the heir executing rank 1's adopted work — dies
// during the re-execution. Two full recovery rounds; the second remaps
// rank 1's tasks a second time (1 → 2 → 3), so completion exercises the
// chained-heir lookup and the re-replicated checkpoints made after round
// one (without re-replication, rank 1's checkpoints die with rank 2).
func TestTwoStaggeredCrashesComplete(t *testing.T) {
	for _, backend := range stack.Backends {
		for _, w := range Workloads {
			t.Run(backend.String()+"/"+w.String(), func(t *testing.T) {
				o := Opts{Backend: backend, Workload: w}
				o.Crashes, o.Recover = staggeredCrashes(t, o), true
				res := Run(o)
				if res.Err != nil {
					t.Fatalf("cascade aborted despite recovery: %v", res.Err)
				}
				if !res.Verified {
					t.Fatalf("factor error %g after two-crash recovery", res.RelErr)
				}
				if n := res.Metrics.Total("fabric", "crashes"); n != 2 {
					t.Fatalf("fabric crash count = %d, want 2", n)
				}
				if n := res.Metrics.Total("parsec", "restarts"); n != 2 {
					t.Fatalf("restarts = %d, want 2 (one per staggered crash)", n)
				}
				// Verdicts: three survivors see rank 1 die, then the two
				// remaining survivors see rank 2 die.
				if n := res.Metrics.Total("rel", "peer_dead"); n != 5 {
					t.Fatalf("peer-death verdicts = %d, want 5", n)
				}
				if res.Metrics.Total("recover", "ckpt_orphaned") == 0 {
					t.Fatal("heirs adopted no orphaned checkpoints")
				}
				if res.Metrics.Total("recover", "ckpt_rereplicated") == 0 {
					t.Fatal("no checkpoints re-replicated to new buddies")
				}
				if res.Metrics.Total("parsec", "tasks_restored") == 0 {
					t.Fatal("restarts restored no tasks from checkpoints")
				}
				if !res.TermAnnounced {
					t.Fatal("run completed without a termination announcement")
				}
			})
		}
	}
}

// TestBuddyPairCrashCompletes: ranks 1 and 2 — a protection pair on the
// ring — die at the same instant, destroying both the pair's primaries and
// every checkpoint they held for each other. One combined recovery round
// absorbs both deaths; the lost work is simply re-executed (checkpoint loss
// degrades to recomputation, never to a wrong answer).
func TestBuddyPairCrashCompletes(t *testing.T) {
	for _, backend := range stack.Backends {
		for _, w := range Workloads {
			t.Run(backend.String()+"/"+w.String(), func(t *testing.T) {
				base := Run(Opts{Backend: backend, Workload: w})
				if base.Err != nil || !base.Verified {
					t.Fatalf("fault-free baseline broken: %+v", base)
				}
				at := base.Makespan * 2 / 5
				res := Run(Opts{
					Backend: backend, Workload: w,
					Crashes: []CrashSpec{{Rank: 1, At: at}, {Rank: 2, At: at}},
					Recover: true,
				})
				if res.Err != nil {
					t.Fatalf("buddy-pair crash aborted despite recovery: %v", res.Err)
				}
				if !res.Verified {
					t.Fatalf("factor error %g after buddy-pair recovery", res.RelErr)
				}
				// Simultaneous verdicts converge into one combined round.
				if n := res.Metrics.Total("parsec", "restarts"); n != 1 {
					t.Fatalf("restarts = %d, want 1 combined round", n)
				}
				// Each of the two survivors raises one verdict per dead rank.
				if n := res.Metrics.Total("rel", "peer_dead"); n != 4 {
					t.Fatalf("peer-death verdicts = %d, want 4", n)
				}
				if res.Metrics.Total("parsec", "tasks_restored") == 0 {
					t.Fatal("surviving checkpoints restored no tasks")
				}
				if res.Metrics.Total("recover", "ckpt_rereplicated") == 0 {
					t.Fatal("survivors did not re-protect onto the collapsed ring")
				}
				if !res.TermAnnounced {
					t.Fatal("run completed without a termination announcement")
				}
			})
		}
	}
}

// TestCrashDuringRecoveryCompletes: the second crash lands 150µs after the
// first — deep inside the first crash's detection window, long before its
// restart round can fire. The round must not rebuild state around a rank
// that is already gone: it either folds both deaths into one combined
// restart directly, or aborts and re-converges (counted in RoundsAborted,
// which varies with lease-tick phase — the differential test below pins it
// per configuration). Either way: exactly one completed round, verified.
func TestCrashDuringRecoveryCompletes(t *testing.T) {
	for _, backend := range stack.Backends {
		for _, w := range Workloads {
			t.Run(backend.String()+"/"+w.String(), func(t *testing.T) {
				base := Run(Opts{Backend: backend, Workload: w})
				if base.Err != nil || !base.Verified {
					t.Fatalf("fault-free baseline broken: %+v", base)
				}
				at := base.Makespan * 2 / 5
				res := Run(Opts{
					Backend: backend, Workload: w,
					Crashes: []CrashSpec{
						{Rank: 1, At: at},
						{Rank: 2, At: at + 150*sim.Microsecond},
					},
					Recover: true,
				})
				if res.Err != nil {
					t.Fatalf("mid-recovery crash aborted the run: %v", res.Err)
				}
				if !res.Verified {
					t.Fatalf("factor error %g after mid-recovery crash", res.RelErr)
				}
				if n := res.Metrics.Total("parsec", "restarts"); n != 1 {
					t.Fatalf("restarts = %d, want 1 combined round", n)
				}
				if n := res.Metrics.Total("rel", "peer_dead"); n != 4 {
					t.Fatalf("peer-death verdicts = %d, want 4", n)
				}
				if res.Metrics.Total("parsec", "tasks_restored") == 0 {
					t.Fatal("combined round restored no tasks")
				}
				if !res.TermAnnounced {
					t.Fatal("run completed without a termination announcement")
				}
			})
		}
	}
}

// TestRecoveryRoundAborted pins the interruptible-round machinery itself:
// with the second crash one full lease after the first, rank 2 is already
// marked dead (fabric-side) when rank 1's armed restart fires, but its
// death verdicts have not converged yet — the round must abort rather than
// rebuild around the unconverged corpse, then re-run combined once the
// votes arrive.
func TestRecoveryRoundAborted(t *testing.T) {
	for _, backend := range stack.Backends {
		t.Run(backend.String(), func(t *testing.T) {
			base := Run(Opts{Backend: backend, Workload: Cholesky})
			if base.Err != nil || !base.Verified {
				t.Fatalf("fault-free baseline broken: %+v", base)
			}
			at := base.Makespan * 2 / 5
			res := Run(Opts{
				Backend: backend, Workload: Cholesky,
				Crashes: []CrashSpec{
					{Rank: 1, At: at},
					{Rank: 2, At: at + 2*sim.Millisecond},
				},
				Recover: true,
			})
			if res.Err != nil || !res.Verified {
				t.Fatalf("aborting round broke the run: %+v", res)
			}
			if res.Metrics.Total("parsec", "recovery_rounds_aborted") == 0 {
				t.Fatal("restart fired with an unconverged dead rank and did not abort")
			}
			if n := res.Metrics.Total("parsec", "restarts"); n != 1 {
				t.Fatalf("restarts = %d, want 1 combined round after the abort", n)
			}
		})
	}
}

// TestThreeCrashSoleSurvivor: three staggered crashes leave rank 0 alone.
// The protection ring collapses to a single node (self-buddy — checkpoints
// become local-only), every dead rank's work chains onto the survivor, and
// the run still verifies. Scaled HiCMA keeps the re-execution tails long
// enough that each derived crash instant lands mid-recovery of the last.
func TestThreeCrashSoleSurvivor(t *testing.T) {
	for _, backend := range stack.Backends {
		t.Run(backend.String(), func(t *testing.T) {
			o := Opts{Backend: backend, Workload: HiCMA, TaskScale: 300}
			cascade := staggeredCrashes(t, o)
			o2 := o
			o2.Crashes, o2.Recover = cascade, true
			m2 := Run(o2)
			if m2.Err != nil || !m2.Verified {
				t.Fatalf("two-crash stage broken: %+v", m2)
			}
			o3 := o
			o3.Crashes = append(cascade, CrashSpec{Rank: 3, At: m2.Makespan - 60*sim.Microsecond})
			o3.Recover = true
			res := Run(o3)
			if res.Err != nil {
				t.Fatalf("near-wipeout aborted despite recovery: %v", res.Err)
			}
			if !res.Verified {
				t.Fatalf("factor error %g with a sole survivor", res.RelErr)
			}
			if n := res.Metrics.Total("fabric", "crashes"); n != 3 {
				t.Fatalf("fabric crash count = %d, want 3", n)
			}
			// 3 verdicts for rank 1, 2 for rank 2, 1 for rank 3: every crash
			// was detected by every rank still alive at the time.
			if n := res.Metrics.Total("rel", "peer_dead"); n != 6 {
				t.Fatalf("peer-death verdicts = %d, want 6", n)
			}
			if n := res.Metrics.Total("parsec", "restarts"); n < 2 {
				t.Fatalf("restarts = %d, want >= 2", n)
			}
			if res.Metrics.Total("parsec", "tasks_restored") == 0 {
				t.Fatal("no tasks restored across the cascade")
			}
			if !res.TermAnnounced {
				t.Fatal("sole survivor never proved termination")
			}
		})
	}
}

// TestRankZeroCrashCompletes: the lowest rank is not special — it holds the
// deadvote collector and the termination detector's home, both of which
// must re-home onto the lowest survivor when rank 0 itself dies.
func TestRankZeroCrashCompletes(t *testing.T) {
	for _, backend := range stack.Backends {
		t.Run(backend.String(), func(t *testing.T) {
			base := Run(Opts{Backend: backend, Workload: Cholesky})
			if base.Err != nil || !base.Verified {
				t.Fatalf("fault-free baseline broken: %+v", base)
			}
			res := Run(Opts{
				Backend: backend, Workload: Cholesky,
				Crashes: []CrashSpec{{Rank: 0, At: base.Makespan * 2 / 5}},
				Recover: true,
			})
			if res.Err != nil || !res.Verified {
				t.Fatalf("rank-0 crash broke recovery: %+v", res)
			}
			if n := res.Metrics.Total("parsec", "restarts"); n != 1 {
				t.Fatalf("restarts = %d, want 1", n)
			}
			if !res.TermAnnounced {
				t.Fatal("run completed without a termination announcement")
			}
		})
	}
}

// TestCrashStormCompletes: the seeded storm generator (a chaos spec's
// storm) produces cascades that the runtime absorbs on both
// backends, for several seeds, with deterministic replay. Storm schedules
// may fold crashes into combined or aborted rounds depending on the seed —
// the invariants are completion, verification, and replay identity.
func TestCrashStormCompletes(t *testing.T) {
	for _, backend := range stack.Backends {
		for _, seed := range []uint64{DefaultSeed, 99} {
			t.Run(backend.String()+"/"+strconv.FormatUint(seed, 16), func(t *testing.T) {
				base := Run(Opts{Backend: backend, Workload: Cholesky})
				if base.Err != nil || !base.Verified {
					t.Fatalf("fault-free baseline broken: %+v", base)
				}
				cascade := Storm(seed, 3, base.Makespan)
				if len(cascade) != 3 {
					t.Fatalf("storm produced %d crashes, want 3", len(cascade))
				}
				o := Opts{Backend: backend, Workload: Cholesky, Crashes: cascade, Recover: true}
				a, b := Run(o), Run(o)
				if a.Err != nil || !a.Verified {
					t.Fatalf("storm broke the run: %+v", a)
				}
				// Every storm crash lands before the recovered makespan, so
				// none is cancelled at termination.
				if n := a.Metrics.Total("fabric", "crashes"); n != 3 {
					t.Fatalf("fabric crash count = %d, want 3 (cascade %v, makespan %v)", n, cascade, a.Makespan)
				}
				if n := a.Metrics.Total("parsec", "restarts"); n < 1 || n > 3 {
					t.Fatalf("restarts = %d, want 1..3", n)
				}
				requireReplay(t, a, b)
			})
		}
	}
}

// TestCrashAfterCompletionIsMoot: a scripted crash that would land after
// the run has finished is cancelled when termination is announced, so the
// run returns the one-crash run's makespan and every counter of every layer
// matches the one-crash run's.
func TestCrashAfterCompletionIsMoot(t *testing.T) {
	for _, backend := range stack.Backends {
		for _, w := range Workloads {
			t.Run(backend.String()+"/"+w.String(), func(t *testing.T) {
				base := Run(Opts{Backend: backend, Workload: w})
				if base.Err != nil || !base.Verified {
					t.Fatalf("fault-free baseline broken: %+v", base)
				}
				c1 := CrashSpec{Rank: 1, At: base.Makespan * 2 / 5}
				one := Run(Opts{Backend: backend, Workload: w, Crashes: []CrashSpec{c1}, Recover: true})
				if one.Err != nil || !one.Verified {
					t.Fatalf("single-crash recovery broken: %+v", one)
				}
				late := CrashSpec{Rank: 2, At: one.Makespan + 100*sim.Microsecond}
				two := Run(Opts{Backend: backend, Workload: w, Crashes: []CrashSpec{c1, late}, Recover: true})
				if two.Err != nil || !two.Verified {
					t.Fatalf("late crash broke the run: %+v", two)
				}
				if two.Makespan != one.Makespan {
					t.Fatalf("makespan %v with a crash at %v, want the one-crash %v", two.Makespan, late.At, one.Makespan)
				}
				if d := metrics.Diff(one.Metrics, two.Metrics); d != "" {
					t.Fatalf("registry differs from the one-crash run: %s", d)
				}
			})
		}
	}
}

// TestTwoCrashDeterministicDifferential is the differential determinism
// obligation for cascades: one Opts value — two crashes, recovery, with and
// without work stealing — replays to a bit-identical execution on both
// backends. The whole registry (every counter of every layer, including
// re-replication, orphan and aborted-round counters), the per-rank busy
// times, and the numerical error itself must match exactly across two
// independent runs.
func TestTwoCrashDeterministicDifferential(t *testing.T) {
	for _, backend := range stack.Backends {
		for _, steal := range []bool{false, true} {
			name := backend.String() + "/steal=off"
			if steal {
				name = backend.String() + "/steal=on"
			}
			t.Run(name, func(t *testing.T) {
				// The steal regime needs compute-dominant tasks and DAG
				// width for migration to fire; the no-steal regime uses the
				// plain mini-problem.
				o := Opts{Backend: backend, Workload: Cholesky}
				if steal {
					o = Opts{Backend: backend, Workload: HiCMA, TaskScale: 300, Workers: 1, Steal: true}
				}
				o.Crashes, o.Recover = staggeredCrashes(t, o), true
				a, b := Run(o), Run(o)
				if a.Err != nil || b.Err != nil {
					t.Fatalf("aborts: %v / %v", a.Err, b.Err)
				}
				if !a.Verified || !b.Verified {
					t.Fatalf("unverified: %g / %g", a.RelErr, b.RelErr)
				}
				if steal && a.Metrics.Total("parsec", "steals") == 0 {
					t.Fatal("steal regime produced zero steals")
				}
				requireReplay(t, a, b)
			})
		}
	}
}
