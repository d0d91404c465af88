package parsec

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"amtlci/internal/core"
	"amtlci/internal/metrics"
	"amtlci/internal/sim"
	"amtlci/internal/steal"
	"amtlci/internal/term"
)

// Runtime drives a distributed taskpool execution over a set of
// communication engines (one per rank) on a shared simulation domain —
// the serial engine, or a sharded sim.Parallel where each rank's node runs
// on its owning shard's goroutine.
type Runtime struct {
	dom    sim.Domain
	tp     Taskpool
	cfg    Config
	nodes  []*node
	tracer *Tracer
	reg    *metrics.Registry

	// obs is the installed observer, nil without one (observer.go).
	obs Observer

	// failMu guards failed: under a sharded domain any shard's engine can
	// report the first unrecoverable error concurrently.
	failMu sync.Mutex
	failed error

	// Crash-recovery state (recovery.go); nil until EnableRecovery.
	rec *recoveryState
	// remap redirects a dead rank's task ownership to its heir: indexed by
	// rank, identity for live ranks, nil until the first restart (the common
	// case costs rankOf one nil check).
	remap []int32
	// restarts counts completed recovery restarts (whole-runtime metric).
	restarts *metrics.Counter

	// term is the distributed termination detector (term.go); always on.
	term   *term.Detector
	nranks int
}

// recordSlab is one shard's supply of fresh flow, step and dispatch records,
// for when a rank's own free lists are empty, its free list of flushed
// aggregation queues (actQueue), and its waiter, GET and queue cell arenas
// (node.waits, node.gets, and the cells of node.ready and node.fetchQ).
// Every rank of the shard uses it, on the shard's goroutine only, so a
// 256-rank run leaves one partly used chunk per shard rather than one per
// rank, and grows queues and arenas to the shard's concurrent peak rather
// than to each rank's; the padding keeps two shards' slabs off one cache
// line. The ranks hold the only references, and drop them with the rest of
// their run state.
type recordSlab struct {
	flows  chunks[flowData]
	ops    chunks[commOp]
	runs   chunks[taskRun]
	queues []*actQueue
	waits  cellArena[TaskID]
	gets   cellArena[getReq]
	queued cellArena[queued]
	_      [64]byte
}

// chunks hands out records of one type carved from chunks, under the metrics
// registry's policy: the first chunk is small, each next one twice the size,
// up to maxChunkBytes. A chunk is never grown or copied, so a record keeps its
// address; the chunk lives as long as any record carved from it is
// reachable, and the records are run-scoped like the free lists they retire
// to, so chunks and records die together when the run's state is dropped.
type chunks[T any] struct {
	rest []T // the uncarved tail of the current chunk
	size int // the current chunk's length
}

const (
	minChunk      = 8
	maxChunkBytes = 32 << 10
)

// take returns a zero record.
func (c *chunks[T]) take() *T {
	if len(c.rest) == 0 {
		var zero T
		c.size = min(max(2*c.size, minChunk), max(maxChunkBytes/int(unsafe.Sizeof(zero)), 1))
		c.rest = make([]T, c.size)
	}
	r := &c.rest[0]
	c.rest = c.rest[1:]
	return r
}

// New builds a runtime. engines must live on dom's per-rank engines and have
// ranks 0..n-1 in order; it panics otherwise.
func New(dom sim.Domain, engines []core.Engine, tp Taskpool, cfg Config) *Runtime {
	if cfg.Workers <= 0 {
		panic("parsec: need at least one worker per rank")
	}
	if cfg.FetchCap <= 0 {
		panic("parsec: FetchCap must be positive")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	if cfg.Steal && cfg.StealMax <= 0 {
		cfg.StealMax = DefaultStealMax
	}
	if cfg.StealMax > steal.MaxTasksPerReply {
		cfg.StealMax = steal.MaxTasksPerReply
	}
	rt := &Runtime{dom: dom, tp: tp, cfg: cfg, tracer: NewTracer(len(engines)), reg: reg}
	rt.nranks = len(engines)
	rt.restarts = reg.Counter("parsec", "restarts", metrics.StackRank)
	tc := termCounters(reg) // before the ranks' instruments: traces keep registration order
	slabs := make([]*recordSlab, dom.Shards())
	for i := range slabs {
		slabs[i] = &recordSlab{}
	}
	for i, ce := range engines {
		if ce.Rank() != i {
			panic(fmt.Sprintf("parsec: engine %d reports rank %d", i, ce.Rank()))
		}
		rt.nodes = append(rt.nodes, newNode(rt, i, ce, cfg, slabs[dom.ShardOf(i)]))
		// A communication-engine failure (peer declared unreachable, bad
		// header on the wire) aborts the whole graph: with a task missing,
		// running the DAG to completion is impossible.
		ce.OnError(rt.fail)
	}
	rt.term = rt.newDetector(tc, rt.sendTerm)
	return rt
}

// fail records the first unrecoverable failure and stops the simulation so
// Run can report it instead of spinning until the retry budgets drain. Safe
// to call from any shard.
func (rt *Runtime) fail(err error) {
	rt.failMu.Lock()
	first := rt.failed == nil
	if first {
		rt.failed = err
	}
	rt.failMu.Unlock()
	if first {
		rt.dom.Stop()
	}
}

// Err returns the first unrecoverable failure, or nil.
func (rt *Runtime) Err() error {
	rt.failMu.Lock()
	defer rt.failMu.Unlock()
	return rt.failed
}

// Tracer returns the latency tracer.
func (rt *Runtime) Tracer() *Tracer { return rt.tracer }

// Metrics returns the registry the runtime's instruments live in.
func (rt *Runtime) Metrics() *metrics.Registry { return rt.reg }

// WorkerBusy returns rank r's total worker-core busy time, summed over its
// worker Procs.
func (rt *Runtime) WorkerBusy(r int) sim.Duration { return rt.nodes[r].workerBusy() }

// Run releases the root tasks and executes the graph to completion,
// returning the virtual makespan. It fails loudly on deadlock: if the event
// queue drains while tasks remain, something violated the taskpool contract.
// A successful run additionally requires the termination detector to have
// announced — completion is proven by consensus, never assumed from the
// event queue draining — and every counted message sent to have been
// received.
func (rt *Runtime) Run() (sim.Duration, error) {
	start := rt.dom.Now()
	for _, n := range rt.nodes {
		n.start()
	}
	// Seed every rank's quiet machinery: a rank with no local work at release
	// time would otherwise never hit a quiet *transition* — the coordinator
	// would never start a round, and an idle rank would never send its first
	// steal probe.
	for _, n := range rt.nodes {
		n.pollQuiet()
	}
	end := rt.dom.Run()

	stuck := false
	for _, n := range rt.nodes {
		stuck = stuck || n.executed != n.total
		n.releaseRunState()
	}
	if err := rt.Err(); err != nil {
		return 0, fmt.Errorf("parsec: task graph aborted: %w", err)
	}
	if stuck {
		// The detector announces here too — a deadlocked graph has genuinely
		// terminated (nothing will ever run again) — but execution is
		// incomplete, which is the more specific verdict.
		return 0, fmt.Errorf("parsec: deadlock, %s", rt.rankStates())
	}
	if !rt.term.Announced() {
		return 0, fmt.Errorf("parsec: completed without a termination announcement, %s", rt.rankStates())
	}
	if sent, recv := rt.term.Balance(); sent != recv {
		return 0, fmt.Errorf("parsec: %d counted messages sent but %d received, %s", sent, recv, rt.rankStates())
	}
	return end.Sub(start), nil
}

// rankStates describes every rank for the error of a run that drained its
// event queue without finishing or without proving it had: how far execution
// got, the termination detector's message counters (a run-wide imbalance is a
// counted message lost or double-counted), and what stealing still waits for.
func (rt *Runtime) rankStates() string {
	states := make([]string, len(rt.nodes))
	for i, n := range rt.nodes {
		sent, recv := n.books.Counts()
		s := fmt.Sprintf("rank %d: %d/%d tasks, csent %d crecv %d", n.rank, n.executed, n.total, sent, recv)
		if n.dead {
			s += ", dead"
		}
		if n.probeOut {
			s += fmt.Sprintf(", steal probe out since %v", n.probeSentAt)
		}
		if len(n.starving) > 0 {
			s += fmt.Sprintf(", starving thieves %v", slices.Sorted(maps.Keys(n.starving)))
		}
		states[i] = s
	}
	return strings.Join(states, "; ")
}

// Progress reports a counter that moves whenever the runtime gets anything
// done — tasks executed plus counted protocol messages sent and accepted,
// over all ranks — and whether a live rank is computing right now. A watchdog
// that sees the counter stand still with nothing computing is looking at a
// wedged run (rel.Stack.WatchProgress). Serial domains only: it reads every
// rank's state from the caller's goroutine.
func (rt *Runtime) Progress() (work uint64, busy bool) {
	for _, n := range rt.nodes {
		sent, recv := n.books.Counts()
		work += uint64(n.executed + sent + recv)
		busy = busy || !n.dead && len(n.idle) < len(n.workers)
	}
	return work, busy
}

// ranks returns the runtime's rank count.
func (rt *Runtime) ranks() int { return rt.nranks }

// TotalTasks sums LocalTasks over all ranks.
func (rt *Runtime) TotalTasks() int64 {
	var total int64
	for i := range rt.nodes {
		total += rt.tp.LocalTasks(i)
	}
	return total
}
