// Package chaos runs the repository's real task graphs — dense tiled
// Cholesky (internal/cholesky) and the TLR HiCMA factorization
// (internal/hicma) — over a fault-injected fabric with the reliability layer
// (internal/rel) interposed, and verifies the numerical result afterwards.
//
// This is the proof obligation of the fault-injection work: under seeded
// drop/duplicate/corrupt/reorder faults the runtime must still drive the DAG
// to a bit-verified factorization on both communication backends, and a
// severed link must surface rel.PeerUnreachable through the engine's error
// path as a clean graph abort — never a hang, never a panic. Everything is
// deterministic: one Opts value (including the fault seed) reproduces one
// execution exactly.
package chaos

import (
	"fmt"
	"math"
	"sync"

	"amtlci/internal/cholesky"
	"amtlci/internal/core/stack"
	"amtlci/internal/fabric"
	"amtlci/internal/hicma"
	"amtlci/internal/linalg"
	"amtlci/internal/metrics"
	"amtlci/internal/parsec"
	recov "amtlci/internal/recover"
	"amtlci/internal/rel"
	"amtlci/internal/sim"
	"amtlci/internal/tlr"
)

// Workload selects the task graph to run.
type Workload int

const (
	// Cholesky is the dense tiled factorization (8×8 tiles of 4, n=32).
	Cholesky Workload = iota
	// HiCMA is the tile-low-rank factorization (n=96, nb=16).
	HiCMA
)

// Workloads lists both graphs.
var Workloads = []Workload{Cholesky, HiCMA}

// String names the workload for tables and subtests.
func (w Workload) String() string {
	switch w {
	case Cholesky:
		return "cholesky"
	case HiCMA:
		return "hicma"
	default:
		return fmt.Sprintf("Workload(%d)", int(w))
	}
}

// DefaultSeed is the fault-schedule seed of the published chaos sweeps:
// an expd chaos point's seed (and a crash storm's) when it sets none.
const DefaultSeed uint64 = 0xC7A05

// Ranks is the number of ranks every chaos execution runs on.
const Ranks = 4

// Opts configures one chaos execution.
type Opts struct {
	Backend  stack.Backend
	Workload Workload
	Workers  int // per-rank worker cores, default 2

	// Faults, when non-nil, is installed on the fabric. Rel, when non-nil,
	// interposes the reliability layer. Both nil reproduces the fault-free
	// baseline the slowdown bound is measured against.
	Faults *fabric.FaultConfig
	Rel    *rel.Config

	// Crash, when non-nil, scripts one rank's fail-stop failure on the
	// fabric. Without Recover the run aborts with a peer-death error.
	Crash *CrashSpec
	// Crashes scripts a cascade of fail-stop failures (distinct ranks, any
	// times — including a buddy pair dying together or a crash landing
	// inside an earlier crash's recovery window). Combined with Crash when
	// both are set.
	Crashes []CrashSpec
	// Recover arms crash recovery: the reliability layer (forced on) runs
	// the heartbeat failure detector, every rank buddy-checkpoints its
	// completed tasks' outputs, and the parsec runtime re-executes each dead
	// rank's work on the rank holding its checkpoints. The recovery budget
	// is sized to the scripted cascade (every scripted crash is absorbed).
	Recover bool

	// Steal enables inter-rank work stealing in the runtime: idle ranks
	// probe loaded ones and migrate ready tasks, which is what flattens the
	// post-crash imbalance a restart dumps on one buddy.
	Steal bool

	// TaskScale multiplies every task's simulated compute cost (values <= 1
	// mean 1, i.e. unscaled). The chaos mini-problems shrink the matrices so
	// the numerics verify quickly, which leaves their runs network-latency
	// bound; scaling compute back up restores the paper's regime, where
	// worker busy time dominates and a post-crash imbalance is visible in
	// the makespan. Numerics are unaffected — only simulated durations grow.
	TaskScale float64
}

// scaledPool wraps a Taskpool, multiplying task costs by a constant.
type scaledPool struct {
	parsec.Taskpool
	scale float64
}

func (p scaledPool) Cost(t parsec.TaskID) sim.Duration {
	return sim.Duration(float64(p.Taskpool.Cost(t)) * p.scale)
}

// CrashSpec schedules one rank's fail-stop crash.
type CrashSpec struct {
	Rank int
	// At is the virtual time of the crash, from job start.
	At sim.Duration
}

// Storm stride and jitter: consecutive storm crashes land 1 ms apart plus
// up to 0.5 ms of seeded jitter, inside the first crash's detection and
// recovery, so every crash of a 3-crash storm lands before the recovered
// makespan of the chaos mini-problems. Later crashes fold into the restart
// in flight, aborting its rounds, rather than starting sequential ones.
const (
	stormStride = 1000 * sim.Microsecond
	stormJitter = 500 * sim.Microsecond
)

// Storm derives a seeded cascade of k fail-stop crashes on distinct ranks
// of the Ranks a chaos execution runs on. The first crash lands at ~40% of
// the given fault-free makespan; each subsequent one follows a stride plus
// seeded jitter, which keeps the cascade inside the (ever-extending)
// recovery tail. At least one rank always survives: k is clamped to
// Ranks-1. The same (seed, k, base) reproduces the same schedule.
func Storm(seed uint64, k int, base sim.Duration) []CrashSpec {
	if k <= 0 {
		return nil
	}
	k = min(k, Ranks-1)
	rng := sim.NewRNG(seed)
	// Seeded Fisher-Yates over all ranks; the first k entries crash.
	perm := make([]int, Ranks)
	for i := range perm {
		perm[i] = i
	}
	for i := Ranks - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	at := base * 2 / 5
	cs := make([]CrashSpec, 0, k)
	for i := 0; i < k; i++ {
		cs = append(cs, CrashSpec{Rank: perm[i], At: at})
		at += stormStride + sim.Duration(rng.Uint64()%uint64(stormJitter))
	}
	return cs
}

// crashSpecs merges the single-crash and cascade fields into one schedule.
func (o *Opts) crashSpecs() []CrashSpec {
	var cs []CrashSpec
	if o.Crash != nil {
		cs = append(cs, *o.Crash)
	}
	return append(cs, o.Crashes...)
}

// Result reports one execution.
type Result struct {
	// Makespan is the virtual time from release to completion (zero when
	// the graph aborted).
	Makespan sim.Duration
	// Err is the graph abort, nil when the DAG ran to completion.
	Err error
	// RelErr is the numerical relative error of the assembled factor
	// against the reference problem (valid when Err is nil).
	RelErr float64
	// Verified reports RelErr within the workload's tolerance.
	Verified bool
	// TermAnnounced reports that the termination detector proved and
	// announced the end of the computation.
	TermAnnounced bool
	// WorkerBusy is each rank's total worker-core busy time: the per-rank
	// idle/busy split that demonstrates a post-crash rebalance.
	WorkerBusy []sim.Duration
	// Metrics is the deployment's shared instrument registry and the one
	// place every counter of the run is read from: faults (layer "fabric"),
	// the reliability layer ("rel") and checkpoints ("recover") when their
	// options were on, and always the runtime's restarts, steals and
	// termination rounds ("parsec"). Two runs of one Opts value hold equal
	// registries (metrics.Diff).
	Metrics *metrics.Registry
}

// tolerance is the verification threshold per workload: exact arithmetic for
// the dense factorization, the compression accuracy for TLR.
func tolerance(w Workload) float64 {
	if w == HiCMA {
		return 1e-6
	}
	return 1e-10
}

// The two mini-problems are literals, so their generated inputs — covariance
// entries evaluated, off-diagonal tiles SVD-compressed — are built once per
// process and shared by every Run; pools never write to them, which is what
// makes concurrent Runs (a chaos spec's points under -j) safe.
const (
	choleskyTiles, choleskyNB = 8, 4
	hicmaN, hicmaNB           = 96, 16
)

var (
	choleskyProb  = sync.OnceValue(func() *tlr.Problem { return tlr.NewProblem(choleskyTiles*choleskyNB, 0.3, 1e-2) })
	hicmaProb     = sync.OnceValue(func() *tlr.Problem { return tlr.NewProblem(hicmaN, 0.4, 1e-2) })
	choleskyInput = sync.OnceValue(newCholeskyInput)
	hicmaInput    = sync.OnceValue(newHiCMAInput)
)

func newCholeskyInput() *cholesky.Input {
	return cholesky.NewInput(choleskyTiles, choleskyNB, choleskyProb().Entry)
}

func newHiCMAInput() *hicma.Input {
	par := hicma.DefaultParams(hicmaN, hicmaNB)
	par.Acc = 1e-10
	par.MaxRank = hicmaNB
	return hicma.NewInput(par, hicmaProb())
}

// factorError returns the relative error of l l^T against the problem's
// matrix: in the Frobenius norm of the whole matrix for the dense
// factorization, over the lower triangle — all a TLR factor defines — for
// HiCMA. Reference entries come straight from prob.Entry and each entry of
// l l^T is formed where it is compared, so nothing of the matrix's size is
// allocated besides l itself.
//
// Entry (i,j) of l l^T is the sum over ascending k of l[i][k]*l[j][k]. l is
// lower triangular, so every term past k = min(i,j) is a zero product, and
// adding one never changes a running sum that started at +0 (which cannot
// become -0): stopping there yields the bits of the full sum.
func factorError(l *linalg.Matrix, prob *tlr.Problem, w Workload) float64 {
	n := l.Rows
	var num, den float64
	for i := 0; i < n; i++ {
		li := l.Data[i*n : (i+1)*n]
		cols := n
		if w == HiCMA {
			cols = i + 1
		}
		for j := 0; j < cols; j++ {
			lj := l.Data[j*n : j*n+min(i, j)+1]
			var s float64
			for k, x := range lj {
				s += li[k] * x
			}
			a := prob.Entry(i, j)
			d := s - a
			num += d * d
			den += a * a
		}
	}
	if w == HiCMA {
		return math.Sqrt(num / den)
	}
	return math.Sqrt(num) / math.Sqrt(den)
}

// Run executes one configuration to quiescence and verifies the numerics.
func Run(o Opts) Result {
	if o.Workers <= 0 {
		o.Workers = 2
	}

	so := stack.DefaultOptions(o.Backend, Ranks)
	so.Fabric.Jitter = 0
	so.Faults = o.Faults
	so.Rel = o.Rel
	crashes := o.crashSpecs()
	if len(crashes) > 0 {
		// Copy the fault config before appending: the caller's value (often
		// shared across a sweep) must not grow crashes per run.
		var fc fabric.FaultConfig
		if o.Faults != nil {
			fc = *o.Faults
		}
		fc.Crashes = append([]fabric.NodeCrash(nil), fc.Crashes...)
		for _, c := range crashes {
			fc.Crashes = append(fc.Crashes, fabric.NodeCrash{Rank: c.Rank, At: sim.Time(c.At)})
		}
		so.Faults = &fc
	}
	if o.Recover {
		// Recovery needs the failure detector, which lives in the
		// reliability layer; force it on (over the caller's tuning if
		// given) without mutating the caller's config.
		rc := rel.DefaultConfig()
		if o.Rel != nil {
			rc = *o.Rel
		}
		rc.EnableHeartbeats()
		so.Rel = &rc
	}
	s := stack.Build(so)

	var (
		tp       parsec.Taskpool
		assemble func() *linalg.Matrix
		prob     *tlr.Problem
	)
	switch o.Workload {
	case Cholesky:
		p := cholesky.NewReal(choleskyInput(), Ranks, 30)
		tp, assemble, prob = p, p.AssembleFactor, choleskyProb()
	case HiCMA:
		p := hicma.NewReal(hicmaInput(), Ranks)
		tp, assemble, prob = p, p.AssembleFactor, hicmaProb()
	default:
		panic(fmt.Sprintf("chaos: unknown workload %d", int(o.Workload)))
	}
	if o.TaskScale > 1 {
		tp = scaledPool{Taskpool: tp, scale: o.TaskScale}
	}

	cfg := parsec.DefaultConfig(o.Workers)
	cfg.Jitter = 0
	cfg.Metrics = s.Metrics
	cfg.Steal = o.Steal
	rt := parsec.New(s.Eng, s.Engines, tp, cfg)
	// A scripted crash that would land after the run has finished is moot.
	rt.OnTerminate(s.Fab.CancelCrashes)
	if o.Recover {
		mgrs := make([]*recov.Manager, len(s.Engines))
		for i, ce := range s.Engines {
			mgrs[i] = recov.NewManager(ce, s.Metrics)
		}
		// The recovery budget covers exactly the scripted cascade: every
		// scripted crash is absorbed, one more is an abort — and a crashless
		// recovered run still tolerates a single surprise, preserving the
		// pre-cascade default.
		budget := len(crashes)
		if budget < 1 {
			budget = 1
		}
		rt.EnableRecovery(parsec.RecoveryConfig{
			Managers:      mgrs,
			RestartDelay:  100 * sim.Microsecond,
			MaxRecoveries: budget,
		})
		// The runtime learns of a crash the instant the fabric scripts it
		// (handlers and workers go inert); the death *verdicts* still come
		// from the survivors' failure detectors.
		s.Fab.OnCrash(rt.KillRank)
		// Heartbeats are the one event source that outlives the workload;
		// they stop when the termination detector *proves* the computation
		// over (global quiet + no counted message in flight), so the
		// simulation can drain — detection, not orchestrator fiat.
		rt.OnTerminate(s.Rel.StopHeartbeats)
		// A wedged run never gets that proof, and the ticks would keep the
		// event queue non-empty forever: the detector watches the runtime's
		// progress and stops itself once it has stood still for several
		// leases, so rt.Run returns its verdict (with every rank's state)
		// instead of spinning.
		s.Rel.WatchProgress(rt.Progress)
	}

	var res Result
	res.Metrics = s.Metrics
	res.Makespan, res.Err = rt.Run()
	res.TermAnnounced = rt.Terminated()
	res.WorkerBusy = make([]sim.Duration, Ranks)
	for r := 0; r < Ranks; r++ {
		res.WorkerBusy[r] = rt.WorkerBusy(r)
	}
	if res.Err != nil {
		res.Makespan = 0
		return res
	}
	res.RelErr = factorError(assemble(), prob, o.Workload)
	res.Verified = res.RelErr <= tolerance(o.Workload)
	if !res.Verified {
		res.Err = fmt.Errorf("chaos: %v factor error %g exceeds %g",
			o.Workload, res.RelErr, tolerance(o.Workload))
	}
	return res
}
