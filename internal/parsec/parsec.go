// Package parsec implements the asynchronous many-task runtime of the paper:
// a PaRSEC-style engine that executes a distributed task graph with
// owner-computes placement, priority scheduling, over-decomposition, and the
// ACTIVATE / GET DATA / put communication protocol of Section 4.1 (Figure 1)
// over the backend-independent communication engine of internal/core.
//
// Per Section 4.3, each rank runs a set of worker cores plus a communication
// thread with four duties: aggregating ACTIVATE messages per destination,
// polling communication progress, sending deferred GET DATA messages, and
// initiating deferred puts. Dataflows with many remote consumers propagate
// down a binomial multicast tree, with forwarding ranks serving their
// subtrees once their own copy arrives. Optionally, worker threads send
// ACTIVATE messages themselves (communication multithreading, §6.4.3),
// trading aggregation for latency.
package parsec

import (
	"fmt"

	"amtlci/internal/metrics"
	"amtlci/internal/sim"
)

// TaskID names one task: a class index into the taskpool's class list and a
// class-specific linear index.
type TaskID struct {
	Class int32
	Index int64
}

// String formats the task for traces.
func (t TaskID) String() string { return fmt.Sprintf("c%d[%d]", t.Class, t.Index) }

// Dep names one edge endpoint: for Inputs it is the producing task and the
// producer's output flow; for Successors it is the consuming task and,
// again, the producer's flow the consumer reads.
type Dep struct {
	Task TaskID
	Flow int32
}

// TaskClass is static metadata for one task type.
type TaskClass struct {
	Name string
}

// Taskpool describes a distributed task graph to the runtime. It is the
// PaRSEC parameterized-task-graph contract: dependences are computed from
// task identities, never stored globally, so graphs with millions of tasks
// need no materialized edge lists.
//
// All methods must be deterministic pure functions of their arguments: the
// runtime calls them from multiple (simulated) ranks and relies on every
// rank deriving identical structure.
type Taskpool interface {
	// Name identifies the taskpool in traces and experiment output.
	Name() string

	// Classes returns static per-class metadata; TaskID.Class indexes it.
	Classes() []TaskClass

	// RankOf returns the rank that executes t (owner computes).
	RankOf(t TaskID) int

	// Cost returns t's execution time on one worker core.
	Cost(t TaskID) sim.Duration

	// Priority orders ready tasks; higher executes first. PaRSEC uses
	// priorities both for scheduling and for ordering data fetches (§4.1).
	Priority(t TaskID) int64

	// Inputs appends t's input dependences to out and returns it.
	Inputs(t TaskID, out []Dep) []Dep

	// Successors appends the consumers of t's output flow to out and
	// returns it. Consumers may repeat a rank; the runtime deduplicates.
	Successors(t TaskID, flow int32, out []Dep) []Dep

	// Roots calls emit for every task owned by rank that has no inputs.
	Roots(rank int, emit func(TaskID))

	// LocalTasks returns how many tasks rank owns in total; the runtime
	// uses it for termination and deadlock detection.
	LocalTasks(rank int) int64

	// Execute performs the task's computation and returns one payload per
	// output flow. inputs follows the order of Inputs and is only valid for
	// the duration of the call (the runtime reuses the slice; the payloads
	// it names may be kept). The returned sizes
	// may depend on the computation (e.g. tile ranks in TLR algorithms).
	// Virtual-mode pools return storage-less payloads. Execute runs
	// logically on a worker core of RankOf(t).
	//
	// The returned slice belongs to the pool: it is valid until the pool's
	// next Execute, and the runtime never writes it or keeps it — each
	// DataRef is copied into the runtime's own records before any other
	// Execute runs (the payload bytes a DataRef names are the runtime's to
	// keep). A pool may therefore hand back one scratch slice per call. On a
	// sharded domain the ranks of different shards call Execute concurrently,
	// so a pool that runs there must return slices nobody writes (a table
	// built once), never a scratch.
	Execute(t TaskID, inputs []DataRef) []DataRef

	// MakeCopy returns the landing buffer at a consuming rank for a remote
	// copy of t's output flow, whose size arrived with the activation.
	MakeCopy(t TaskID, flow int32, size int64) DataRef
}

// DataRef is a handle to one dataflow payload.
type DataRef struct {
	Buf bufAlias
}

// bufAlias keeps the public surface tidy without an import cycle; it is
// defined in data.go as = buf.Buf.

// Config controls the runtime.
type Config struct {
	// Workers is the number of worker cores per rank. The paper's platform
	// has 128 cores: 127 workers with the MPI backend (1 comm thread) and
	// 126 with LCI (comm + progress threads), §6.1.2.
	Workers int

	// MTActivate enables communication multithreading: workers send their
	// ACTIVATE messages directly instead of funneling them through the
	// communication thread (§6.4.3). Aggregation is lost.
	MTActivate bool

	// FetchCap bounds concurrently outstanding GET DATA requests per rank;
	// further fetches queue by priority (the §4.1 deferral).
	FetchCap int

	// FetchLazy defers a flow's GET DATA until some local consumer has all
	// its other dependences satisfied — the strictest reading of the §4.1
	// "request data immediately or defer" policy. The microbenchmarks use
	// it to honor their SYNC serialization; HiCMA prefetches eagerly.
	FetchLazy bool

	// Steal enables inter-rank work stealing: a rank whose workers have all
	// gone idle probes the others in ring order and migrates up to half of a
	// loaded victim's eligible ready tasks, together with their input tiles
	// (fetched over the ordinary GET DATA path). Off by default — a no-steal
	// run sends not a single steal message, keeping the calibrated wire
	// traffic byte-identical to the paper's.
	Steal bool

	// StealMax caps the tasks migrated by one steal exchange; 0 means
	// DefaultStealMax.
	StealMax int

	// Jitter is the relative sigma of task-duration noise; Seed seeds it.
	Jitter float64
	Seed   uint64

	// Cost model of runtime-internal work (all charged to the thread that
	// performs it).
	SchedCost       sim.Duration // scheduler pop + worker handoff
	CompleteCost    sim.Duration // per-task completion bookkeeping
	ActivateCost    sim.Duration // per-activation processing in the AM callback
	ActivateDesc    sim.Duration // per local descendant of each activation (§4.3)
	GetDataCost     sim.Duration // per-GET DATA processing at the data owner
	DeliverCost     sim.Duration // per-arrival release processing
	AggregationCost sim.Duration // per-destination flush bookkeeping

	// Metrics is the registry every rank registers its instruments in
	// (task/protocol counters, ready- and fetch-queue depths, worker busy
	// time). Nil gets a private registry; stack.Build shares one across
	// every layer.
	Metrics *metrics.Registry
}

// treeFanout switches multicasts to a binomial tree once a flow has at least
// this many consumer ranks; below it the root sends directly. amCap bounds
// one aggregated ACTIVATE message's payload bytes.
const (
	treeFanout = 4
	amCap      = 8 << 10
)

// DefaultStealMax is the per-exchange migration cap when Config.StealMax is
// zero. It matches the steal package's per-reply frame budget.
const DefaultStealMax = 64

// DefaultConfig mirrors the paper's runtime setup for w workers.
func DefaultConfig(w int) Config {
	return Config{
		Workers:         w,
		FetchCap:        16,
		Jitter:          0.02,
		Seed:            0xA37,
		SchedCost:       200 * sim.Nanosecond,
		CompleteCost:    400 * sim.Nanosecond,
		ActivateCost:    1500 * sim.Nanosecond,
		ActivateDesc:    1 * sim.Microsecond,
		GetDataCost:     1500 * sim.Nanosecond,
		DeliverCost:     800 * sim.Nanosecond,
		AggregationCost: 150 * sim.Nanosecond,
	}
}
