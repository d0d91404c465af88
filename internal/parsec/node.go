package parsec

import (
	"fmt"
	"iter"
	"slices"

	"amtlci/internal/core"
	"amtlci/internal/metrics"
	recov "amtlci/internal/recover"
	"amtlci/internal/sim"
	"amtlci/internal/steal"
	"amtlci/internal/term"
)

// node is one rank's runtime instance: scheduler state, worker cores, the
// dataflow store, and the protocol handlers that run on the communication
// thread.
type node struct {
	rt   *Runtime
	rank int
	// eng is the engine of the shard that owns this rank; every event and
	// clock read of this node goes through it, never through another rank's.
	eng *sim.Engine
	ce  core.Engine
	cfg Config

	// workers holds one processor per worker core, made at the core's first
	// dispatch (worker): idle is a stack, so a rank with 126 cores and a dozen
	// concurrently ready tasks only ever touches the top dozen.
	workers []*sim.Proc
	idle    []int // indices of idle workers, LIFO

	// ready orders released tasks; tasks holds the dependence counters of
	// tasks that have been touched but not yet completed, inline; store holds
	// this rank's dataflow copies. Both tables track the live set only (see
	// flatTable for the invariants and the pointer-lifetime rule), and all
	// three are run-scoped: releaseRunState drops them when Run returns.
	ready prioQueue
	tasks flatTable[taskState]
	store flatTable[*flowData]
	// lazy holds the cells of the tasks' lazy-fetch chains (taskState);
	// waits those of the flow copies' local consumer lists and of the chains
	// an activation step carries (flowData.waiters, commOp.waiters), and gets
	// those of the GET DATA requests queued at a forwarder
	// (flowData.pendingGets). lazy is the rank's, since a restart truncates
	// it with the task table; waits and gets are the shard's (recordSlab),
	// which no restart truncates. All three are run-scoped, like the tables.
	lazy  cellArena[flowKey]
	waits *cellArena[TaskID]
	gets  *cellArena[getReq]
	// runs recycles dispatch records (taskRun) between tasks; ops recycles
	// the communication thread's deferred-step records (commop.go); flows
	// recycles the store's dataflow records (newFlow, retireFlow). Their
	// records are carved from slab, the one of this rank's shard, and lists,
	// slab and records are all run-scoped, so the in-flight peak is paid for
	// once per run and dropped with it.
	runs  sim.FreeList[taskRun]
	ops   sim.FreeList[commOp]
	flows sim.FreeList[flowData]
	slab  *recordSlab
	// opHead..opTail is the FIFO of steps submitted to the communication
	// thread and not yet run, linked through commOp.next; runOpFn is
	// n.runOp, bound once, the engine's item for each of them.
	opHead, opTail *commOp
	runOpFn        func()
	// putRecs lists every step record that has served as a put completion,
	// at the index its callback names (putCompletion).
	putRecs []*commOp

	executed int64
	total    int64
	rng      *sim.RNG

	// Crash-recovery state. dead marks a rank that crashed (its handlers
	// and workers go inert); paused holds dispatch while a restart is being
	// orchestrated; epoch stamps outgoing protocol messages so traffic from
	// before a restart is recognized and dropped (stale cross-epoch
	// messages would otherwise corrupt the rebuilt dataflow state).
	dead   bool
	paused bool
	epoch  int32

	// Fetch management (§4.1 deferral, §4.3 duty 3).
	activeFetches int
	fetchQ        prioQueue

	// ACTIVATE aggregation (§4.3 duty 1), funneled mode only: each
	// destination rank's queue of entries until its flush, nil while nothing
	// is queued — a destination has a flush scheduled exactly while it has a
	// queue. Indexed by rank and allocated at the first remote activation;
	// pendingDests counts the queues (the quiet predicate reads it). Queues
	// come from, and flushed ones go back to, the shard's slab.
	pendingAct   []*actQueue
	pendingDests int

	// books is this rank's half of the termination detector (term.go): the
	// counted protocol messages it sent and admitted, its color, and a held
	// token. pendingOps counts deferred communication-thread operations so
	// the quiet predicate covers the window between scheduling and execution.
	books      term.Books
	pendingOps int

	// Work-stealing state (steal_node.go); rot is nil unless cfg.Steal.
	// starving records thieves whose probes this rank denied: when new local
	// work appears, the victim pushes a grant instead of making the thief
	// poll — the event-driven answer to retry timers, which would keep the
	// simulation (and the termination detector) churning forever.
	starving       map[int]bool
	stealSvcQueued bool
	rot            *steal.Rotation
	probeOut       bool
	probeSentAt    sim.Time

	// Runtime counters (metrics registry, layer "parsec", per rank).
	tasksRun, activatesSent, activations  *metrics.Counter
	getsSent, fetchDeferred, bytesFetched *metrics.Counter
	staleDrops, tasksRestored             *metrics.Counter
	stealsC, stealTasksC, stealGrantedC   *metrics.Counter
	stealLat                              *metrics.Histogram

	// Scratch reused across tasks so the steady state allocates nothing of
	// its own: taskpool edge lists, the input payloads handed to Execute,
	// the multicast rank tree (this rank, then the consumer ranks) and its
	// children, built by complete and forward, and the flow list of a
	// checkpoint. lastOutputs is the pool's Execute result, borrowed until
	// complete has copied it into flow records.
	inputScratch []Dep
	succScratch  []Dep
	inputRefs    []DataRef
	treeRanks    []int32
	childScratch [][]int32
	ckptFlows    []recov.FlowCkpt
	lastOutputs  []DataRef
	// encBuf is the encode scratch of every active message this rank sends
	// (SendAM and Put copy their payload before returning); actScratch and
	// treeScratch are onActivate's decode scratch, the entries and the
	// subtrees they alias.
	encBuf      []byte
	actScratch  []activation
	treeScratch []int32
}

// actQueue is the activations queued for one destination until its flush.
// Each entry's subtree aliases trees, the queue's own copy: the step that
// queued the entry recycles its record, and the rank tree it was cut from,
// right after.
type actQueue struct {
	acts  []activation
	trees []int32
}

// taskState is one task's dependence counter, stored inline in node.tasks.
type taskState struct {
	remaining int32
	// The task's announced-but-unfetched input flows (FetchLazy mode), nlazy
	// cells of node.lazy chained from lazyHead in announcement order; their
	// fetches launch when remaining == nlazy. lazyHead means nothing while
	// nlazy is zero, so the zero state is an empty chain.
	lazyHead int32
	nlazy    int32
}

// cellArena is a store of index-linked list cells of one kind, one rank's or
// one shard's (node.lazy, node.waits). Retired cells are chained from free and
// taken first, so the lists cost nothing once the arena has grown to its
// in-flight peak. Cells are numbered from 1 (cell c is cells[c-1]), so index 0
// (noCell) ends every chain, and the zero arena and the zero cellList are
// empty. T holds no pointers, so the arena is one block the collector never
// scans.
type cellArena[T any] struct {
	cells []cell[T]
	free  int32
}

type cell[T any] struct {
	v    T
	next int32
}

const noCell = 0

// at returns cell c.
func (a *cellArena[T]) at(c int32) *cell[T] { return &a.cells[c-1] }

// take returns a cell holding v that ends a chain.
func (a *cellArena[T]) take(v T) int32 {
	c := a.free
	if c == noCell {
		if len(a.cells) == cap(a.cells) {
			// Double: an arena grows to its peak once per run, and append's
			// 1.25× steps for large slices would allocate five times that
			// peak on the way.
			grown := make([]cell[T], len(a.cells), max(2*cap(a.cells), 64))
			copy(grown, a.cells)
			a.cells = grown
		}
		a.cells = append(a.cells, cell[T]{v: v})
		return int32(len(a.cells))
	}
	a.free = a.at(c).next
	*a.at(c) = cell[T]{v: v}
	return c
}

// release retires cell c to the free chain.
func (a *cellArena[T]) release(c int32) {
	*a.at(c) = cell[T]{next: a.free}
	a.free = c
}

// reset retires every cell at once, keeping the arena's capacity.
func (a *cellArena[T]) reset() { a.cells, a.free = a.cells[:0], noCell }

// cellList is a FIFO list threaded through one arena: its first and last
// cells. The zero value is the empty list.
type cellList struct{ head, tail int32 }

func (l cellList) empty() bool { return l.head == noCell }

// push appends v to l.
func (a *cellArena[T]) push(l *cellList, v T) {
	c := a.take(v)
	if l.head == noCell {
		l.head = c
	} else {
		a.at(l.tail).next = c
	}
	l.tail = c
}

// splice moves src's cells to the end of l.
func (a *cellArena[T]) splice(l *cellList, src cellList) {
	switch {
	case src.empty():
		return
	case l.empty():
		l.head = src.head
	default:
		a.at(l.tail).next = src.head
	}
	l.tail = src.tail
}

// drop retires l's cells.
func (a *cellArena[T]) drop(l cellList) {
	if !l.empty() {
		a.at(l.tail).next = a.free
		a.free = l.head
	}
}

// all yields l's values in order, leaving the list as it is.
func (a *cellArena[T]) all(l cellList) iter.Seq[T] {
	return func(yield func(T) bool) {
		for c := l.head; c != noCell; c = a.at(c).next {
			if !yield(a.at(c).v) {
				return
			}
		}
	}
}

// pop removes l's first cell, which it retires, and returns its value; l
// must not be empty.
func (a *cellArena[T]) pop(l *cellList) T {
	c := l.head
	v := a.at(c).v
	l.head = a.at(c).next
	a.release(c)
	return v
}

// drain empties *l, yielding its values in order; each cell is retired
// before its value is yielded, so the loop body may push to any list of the
// arena, l included.
func (a *cellArena[T]) drain(l *cellList) iter.Seq[T] {
	return func(yield func(T) bool) {
		for !l.empty() {
			if !yield(a.pop(l)) {
				return
			}
		}
	}
}

// flowData is one dataflow copy at one rank, a pooled record like the rest of
// the message path's (DESIGN.md §9): newFlow takes it from node.flows, and
// maybeClean — the one place a copy leaves the store — retires it. Its two
// variable-length lists live in the shard's cell arenas: waiters, the local
// consumers waiting for the data, in node.waits, and pendingGets, the GET DATA
// requests queued at a forwarder until its own copy lands, in node.gets. Both
// are drained when the copy becomes ready (deliver, or at once for a control
// flow), so a retired record holds no cell. Deferred communication-thread
// steps and put completions hold the pointer across events, under two rules.
// Within an epoch a step that names a record keeps the copy from being cleaned
// (an unserved GET, a fetch in flight), so it never finds the record retired;
// servePut, deliver and putLocalDone panic if one does. Across a restart — and
// on a rank that died — the records still in the store are abandoned to the
// GC, never retired: stale steps of the old epoch still point at them, exactly
// as with commOp and taskRun. Their cells are abandoned with them: they stay
// taken until the run ends (resetForRecovery keeps both arenas).
// Fresh records are carved from the shard's slab.
type flowData struct {
	ref         DataRef
	size        int64
	lreg        regHandle
	waiters     cellList
	pendingGets cellList
	// Tracing/forwarding metadata, valid away from the root; its subtree is
	// always nil (the tree is forwarded when the activation arrives).
	meta         activation
	expectedGets int32
	servedGets   int32
	localRefs    int32
	state        flowState
	registered   bool
	// stolen marks an entry created by adopting a stolen task before any
	// activation for the flow reached this rank; a real activation merges
	// into it (mergeActivation) rather than colliding.
	stolen bool
	live   bool // between newFlow and retireFlow
}

// taskRun is one dispatched task on its way through a worker core. The
// record is what the worker's Proc queues (through done, bound once when the
// record is carved from the shard's slab), so dispatching allocates no
// closure; finished records go back to node.runs. The recovery epoch travels
// IN the record, with the queued work: a restart hands every worker slot
// back while pre-restart completions may still sit in the Procs, and such a
// completion must find its own stale epoch — not state a post-restart
// dispatch has since written. That is why a record is recycled only by its
// own completion and a stale one is simply dropped.
type taskRun struct {
	n     *node
	task  TaskID
	w     int32
	epoch int32
	done  func()
}

func newNode(rt *Runtime, rank int, ce core.Engine, cfg Config, slab *recordSlab) *node {
	n := &node{
		rt:    rt,
		rank:  rank,
		eng:   rt.dom.RankEngine(rank),
		ce:    ce,
		cfg:   cfg,
		rng:   sim.NewRNG(cfg.Seed ^ (uint64(rank)+1)*0x9E3779B97F4A7C15),
		slab:  slab,
		waits: &slab.waits,
		gets:  &slab.gets,
	}
	n.ready.cells, n.fetchQ.cells = &slab.queued, &slab.queued
	n.runOpFn = n.runOp
	n.workers = make([]*sim.Proc, cfg.Workers)
	for i := range n.workers {
		n.idle = append(n.idle, i)
	}
	reg := rt.reg
	n.tasksRun = reg.Counter("parsec", "tasks_run", rank)
	n.activatesSent = reg.Counter("parsec", "activates_sent", rank)
	n.activations = reg.Counter("parsec", "activations", rank)
	n.getsSent = reg.Counter("parsec", "gets_sent", rank)
	n.fetchDeferred = reg.Counter("parsec", "fetch_deferred", rank)
	n.bytesFetched = reg.Counter("parsec", "bytes_fetched", rank)
	n.staleDrops = reg.Counter("parsec", "stale_drops", rank)
	n.tasksRestored = reg.Counter("parsec", "tasks_restored", rank)
	n.stealsC = reg.Counter("parsec", "steals", rank)
	n.stealTasksC = reg.Counter("parsec", "steal_tasks", rank)
	n.stealGrantedC = reg.Counter("parsec", "steal_granted", rank)
	n.stealLat = reg.Histogram("parsec", "steal_latency_ns", rank)
	reg.Probe("parsec", "ready_queue_depth", rank, false, func() float64 { return float64(n.ready.Len()) })
	reg.Probe("parsec", "fetch_queue_depth", rank, false, func() float64 { return float64(n.fetchQ.Len()) })
	reg.Probe("parsec", "active_fetches", rank, false, func() float64 { return float64(n.activeFetches) })
	reg.Probe("parsec", "workers_busy", rank, true, func() float64 { return n.workerBusy().Seconds() })
	ce.TagReg(tagActivate, n.onActivate, amCap)
	ce.TagReg(tagGetData, n.onGetData, 256)
	ce.TagReg(tagPutDone, n.onPutDone, 256)
	ce.TagReg(tagTerm, n.onTerm, 256)
	ce.TagReg(tagStealReq, n.onStealReq, 256)
	ce.TagReg(tagStealRep, n.onStealRep, 16<<10)
	ce.TagReg(tagStealRel, n.onStealRel, 256)
	if cfg.Steal {
		n.rot = steal.NewRotation(rank, rt.ranks())
	}
	return n
}

// worker returns core w's processor, making it at the core's first use.
func (n *node) worker(w int) *sim.Proc {
	p := n.workers[w]
	if p == nil {
		p = sim.NewProc(n.eng)
		n.workers[w] = p
	}
	return p
}

// workerBusy sums the busy time of the cores that have run anything.
func (n *node) workerBusy() sim.Duration {
	var busy sim.Duration
	for _, w := range n.workers {
		if w != nil {
			busy += w.BusyTime()
		}
	}
	return busy
}

// start enumerates root tasks and releases them.
func (n *node) start() {
	n.total = n.rt.tp.LocalTasks(n.rank)
	n.rt.tp.Roots(n.rank, func(t TaskID) {
		n.stateOf(t) // remaining == 0 for roots
		n.makeReady(t)
	})
}

// releaseRunState drops everything only a running graph needs — tables,
// queues, aggregation buffers, free lists, scratch — once Run has returned:
// a finished Runtime serves WorkerBusy, Tracer and Metrics, and callers keep
// it (and with it 2 tables and a dozen slices per rank) alive for exactly
// that. The rank's engine drops its own run-scoped records with it, so the
// retained stack holds no message-path record either.
func (n *node) releaseRunState() {
	n.ce.ReleaseRunState()
	n.tasks.reset()
	n.store.reset()
	n.lazy, n.waits, n.gets = cellArena[flowKey]{}, nil, nil
	n.ready, n.fetchQ = prioQueue{}, prioQueue{}
	n.runs.Drop()
	n.ops.Drop()
	n.flows.Drop()
	n.slab = nil
	n.opHead, n.opTail, n.putRecs = nil, nil, nil
	n.encBuf, n.actScratch, n.treeScratch = nil, nil, nil
	n.pendingAct = nil
	n.inputScratch, n.succScratch, n.inputRefs = nil, nil, nil
	n.treeRanks, n.childScratch, n.lastOutputs = nil, nil, nil
	n.ckptFlows = nil
}

// stateOf returns t's dependence state, creating it from the taskpool's
// input list on first touch. The pointer aims into n.tasks and dies with the
// next stateOf of a new task or completion (flatTable's pointer-lifetime
// rule): use it at once, re-fetch after anything that may release or
// complete a task.
func (n *node) stateOf(t TaskID) *taskState {
	st, fresh := n.tasks.insert(flowKey{task: t})
	if fresh {
		n.inputScratch = n.rt.tp.Inputs(t, n.inputScratch[:0])
		st.remaining = int32(len(n.inputScratch))
	}
	return st
}

// flow returns this rank's copy of a dataflow, or nil.
func (n *node) flow(key flowKey) *flowData {
	if p := n.store.get(key); p != nil {
		return *p
	}
	return nil
}

// putFlow stores fd as this rank's copy of key.
func (n *node) putFlow(key flowKey, fd *flowData) {
	p, _ := n.store.insert(key)
	*p = fd
}

// newFlow takes a flow record for a copy of size bytes in the given state.
func (n *node) newFlow(state flowState, size int64) *flowData {
	fd := n.flows.Get()
	if fd == nil {
		fd = n.slab.flows.take()
	}
	fd.live, fd.state, fd.size = true, state, size
	return fd
}

// retireFlow recycles the record of a copy that has left the store. Only ready
// copies are cleaned, and both lists were drained when the copy became ready,
// so the record holds no cell here.
func (n *node) retireFlow(fd *flowData) {
	fd.mustLive()
	*fd = flowData{}
	n.flows.Put(fd)
}

// mustLive panics on a retired record: a deferred step or a second cleanup
// reached a flow copy that has already left the store.
func (fd *flowData) mustLive() {
	if !fd.live {
		panic("parsec: flow record used after retirement")
	}
}

// satisfy decrements t's dependence counter, releasing it at zero.
func (n *node) satisfy(t TaskID) {
	st := n.stateOf(t)
	st.remaining--
	if st.remaining < 0 {
		panic(fmt.Sprintf("parsec: task %v over-satisfied at rank %d", t, n.rank))
	}
	if st.remaining == 0 {
		n.makeReady(t)
		return
	}
	if n.cfg.FetchLazy && st.nlazy > 0 && st.remaining == st.nlazy {
		head := st.lazyHead
		st.nlazy = 0
		n.launchLazy(head)
	}
}

// launchLazy requests every deferred flow of one task's detached chain, in
// announcement order, retiring each cell before its fetch starts; shared
// flows may already be fetching on behalf of another consumer.
func (n *node) launchLazy(c int32) {
	for c != noCell {
		key, next := n.lazy.at(c).v, n.lazy.at(c).next
		n.lazy.release(c)
		c = next
		fd := n.flow(key)
		if fd == nil || fd.state != flowAnnounced {
			continue
		}
		n.requestFetch(key, fd, 1<<62)
	}
}

func (n *node) makeReady(t TaskID) {
	// Fresh local work re-arms the steal rotation: a dormant thief should
	// try the ring again once its situation has changed. It also wakes the
	// victim side: thieves whose probes were denied get a pushed grant.
	if n.rot != nil {
		n.rot.Reset()
		if len(n.starving) > 0 && !n.stealSvcQueued {
			n.stealSvcQueued = true
			n.submit(0, n.newOp(opServeStarving))
		}
	}
	n.ready.Push(n.rt.tp.Priority(t), t, 0)
	n.dispatch()
}

// rankOf resolves a task's executing rank through the runtime's recovery
// remap: after a crash, the dead rank's tasks answer to its buddy.
func (n *node) rankOf(t TaskID) int { return n.rt.rankOf(t) }

// dispatch pairs ready tasks with idle workers.
func (n *node) dispatch() {
	if n.dead || n.paused {
		return
	}
	for len(n.idle) > 0 && n.ready.Len() > 0 {
		w := n.idle[len(n.idle)-1]
		n.idle = n.idle[:len(n.idle)-1]
		it := n.ready.Pop()
		n.runTask(it.task, w)
	}
}

// runTask executes t on worker w, on a recycled dispatch record.
func (n *node) runTask(t TaskID, w int) {
	r := n.runs.Get()
	if r == nil {
		r = n.slab.runs.take()
		r.n = n
		r.done = r.finish
	}
	n.launch(r, t, w)
}

// launch charges t to worker w: scheduling overhead, the (jittered) kernel
// cost, and completion bookkeeping all occupy the worker core, and r.finish
// runs when they have been paid.
func (n *node) launch(r *taskRun, t TaskID, w int) {
	cost := n.cfg.SchedCost + n.rng.Jitter(n.rt.tp.Cost(t), n.cfg.Jitter) + n.cfg.CompleteCost
	if n.rt.obs != nil {
		n.rt.obs.TaskStart(n.rank, w, t, n.eng.Now())
	}
	r.task, r.w, r.epoch = t, int32(w), n.epoch
	n.worker(w).Submit(cost, r.done)
}

// finish is the worker-core completion of one dispatched task.
func (r *taskRun) finish() {
	n := r.n
	// A crash or restart between dispatch and execution voids the task: the
	// worker slot was already handed back by the reset, so the stale record
	// must vanish without touching the idle list (or the free list).
	if n.dead || r.epoch != n.epoch {
		return
	}
	t, w := r.task, int(r.w)
	n.execute(t, w)
	n.complete(t, w)
	if n.rt.obs != nil {
		n.rt.obs.TaskEnd(n.rank, w, t, n.eng.Now())
	}
	// The worker picks up the next ready task or goes idle. Idling is a
	// quiet-transition point: the last worker to idle may complete the
	// rank's termination-detection obligations (and go looking for work
	// to steal).
	if n.ready.Len() > 0 {
		n.launch(r, n.ready.Pop().task, w)
	} else {
		n.runs.Put(r)
		n.idle = append(n.idle, w)
		n.pollQuiet()
	}
}

// execute gathers inputs and invokes the application's kernel (real
// numerics in small-scale mode, no-op in virtual mode).
func (n *node) execute(t TaskID, w int) {
	n.inputScratch = n.rt.tp.Inputs(t, n.inputScratch[:0])
	inputs := n.inputRefs[:0]
	for _, dep := range n.inputScratch {
		key := flowKey{dep.Task, dep.Flow}
		fd := n.flow(key)
		if fd == nil || fd.state != flowReady {
			panic(fmt.Sprintf("parsec: rank %d task %v input %v not ready", n.rank, t, dep))
		}
		inputs = append(inputs, fd.ref)
		fd.localRefs--
		n.maybeClean(key, fd)
	}
	n.lastOutputs = n.rt.tp.Execute(t, inputs)
	// The scratch must not keep the input payloads alive past the task.
	clear(inputs)
	n.inputRefs = inputs[:0]
}

// complete releases t's descendants: local consumers directly, remote ones
// through the ACTIVATE protocol (Figure 1).
func (n *node) complete(t TaskID, w int) {
	n.executed++
	n.tasksRun.Inc()
	// The task's dependence state is dead from here on (every input was
	// satisfied exactly once, pre-execution); dropping it keeps memory flat
	// on multi-million-task runs.
	n.tasks.remove(flowKey{task: t})
	outputs := n.lastOutputs
	n.lastOutputs = nil

	// Buddy checkpointing: record the completed task's outputs before its
	// successors are released, so a crash between the two re-executes the
	// task rather than losing it.
	n.rt.checkpointTask(n, t, outputs)

	for f := 0; f < len(outputs); f++ {
		flow := int32(f)
		key := flowKey{t, flow}
		size := outputs[f].Buf.Size
		n.succScratch = n.rt.tp.Successors(t, flow, n.succScratch[:0])

		fd := n.newFlow(flowReady, size)
		fd.ref = outputs[f]
		now := int64(n.eng.Now())
		fd.meta = activation{task: t, flow: flow, size: size,
			root: int32(n.rank), rootSend: now, hopRank: int32(n.rank), hopSend: now,
			epoch: n.epoch}
		n.putFlow(key, fd)

		// Partition consumers into local tasks and remote ranks. Consumers
		// that already executed before a restart (the recovery done set) are
		// skipped: satisfying them again would corrupt the rebuilt counters.
		// The remote ranks go into the tree scratch behind this rank, the
		// multicast root.
		tree := append(n.treeRanks[:0], int32(n.rank))
		for _, dep := range n.succScratch {
			if n.rt.isDone(dep.Task) {
				continue
			}
			r := n.rankOf(dep.Task)
			if r == n.rank {
				fd.localRefs++
				n.satisfy(dep.Task)
				continue
			}
			tree = append(tree, int32(r))
		}
		n.treeRanks = tree
		if len(tree) == 1 {
			n.maybeClean(key, fd)
			continue
		}
		slices.Sort(tree[1:])
		remote := slices.Compact(tree[1:])
		tree = tree[:1+len(remote)]

		// Multicast: direct sends below the fan-out threshold, binomial
		// tree above it. Both cut their children's subtrees from the
		// scratch: sendActivate encodes or copies each before it returns.
		children := n.childScratch[:0]
		if len(remote) >= treeFanout {
			children = treeSplit(children, tree)
		} else {
			for i := range remote {
				children = append(children, remote[i:i+1:i+1])
			}
		}
		n.childScratch = children
		if size > 0 { // control flow: children never fetch
			fd.expectedGets = int32(len(children))
		}

		for _, sub := range children {
			act := fd.meta
			act.subtree = sub[1:]
			n.sendActivate(int(sub[0]), act, w)
		}
	}
}

// sendActivate routes one activation entry: funneled through the
// communication thread with aggregation, or sent directly by the worker in
// multithreaded mode. Recovery restores pass w < 0 — there is no worker
// context, so the entry always takes the funneled path.
func (n *node) sendActivate(dest int, act activation, w int) {
	if n.cfg.MTActivate && w >= 0 {
		n.encBuf = appendActivates(n.encBuf[:0], act)
		n.activatesSent.Inc()
		n.activations.Inc()
		n.books.CountSend()
		if n.rt.obs != nil {
			n.rt.obs.ActivateSent(n.rank, dest, 1, n.eng.Now())
		}
		n.ce.SendAMMT(n.worker(w), tagActivate, dest, n.encBuf, nil)
		return
	}
	o := n.newOp(opAggregate)
	o.peer = dest
	o.setAct(act)
	n.submit(n.cfg.AggregationCost, o)
}

// aggregate queues one activation for dest on the communication thread and
// arranges the flush. The entry's subtree is copied into the queue.
func (n *node) aggregate(dest int, act activation) {
	if n.pendingAct == nil {
		n.pendingAct = make([]*actQueue, n.rt.ranks())
	}
	q := n.pendingAct[dest]
	if q == nil {
		if free := n.slab.queues; len(free) > 0 {
			q, n.slab.queues = free[len(free)-1], free[:len(free)-1]
		} else {
			q = new(actQueue)
		}
		n.pendingAct[dest] = q
		n.pendingDests++
		// The flush runs when the communication thread next gets to it;
		// everything queued for dest in the meantime aggregates into one
		// ACTIVATE message (§4.3 duty 1).
		f := n.newOp(opFlush)
		f.peer = dest
		n.submit(0, f)
	}
	off := len(q.trees)
	q.trees = append(q.trees, act.subtree...)
	act.subtree = q.trees[off:len(q.trees):len(q.trees)]
	q.acts = append(q.acts, act)
}

func (n *node) flushActivates(dest int) {
	q := n.pendingAct[dest]
	if q == nil {
		return
	}
	n.pendingAct[dest] = nil
	n.pendingDests--
	// Respect the AM payload cap: chunk if needed.
	entries := q.acts
	for len(entries) > 0 {
		bytes := 2
		cut := 0
		for cut < len(entries) {
			l := entries[cut].encodedLen()
			if bytes+l > amCap && cut > 0 {
				break
			}
			bytes += l
			cut++
		}
		chunk := entries[:cut]
		entries = entries[cut:]
		n.activatesSent.Inc()
		n.activations.Add(uint64(len(chunk)))
		n.books.CountSend()
		if n.rt.obs != nil {
			n.rt.obs.ActivateSent(n.rank, dest, len(chunk), n.eng.Now())
		}
		n.encBuf = appendActivates(n.encBuf[:0], chunk...)
		n.ce.SendAM(tagActivate, dest, n.encBuf)
	}
	// The payloads are encoded; the queue goes back for the next aggregate
	// (its entries cleared, so none pins a tree array the queue outgrew).
	clear(q.acts)
	q.acts, q.trees = q.acts[:0], q.trees[:0]
	n.slab.queues = append(n.slab.queues, q)
}

// wireFail aborts the task graph on a wire-protocol violation. Under fault
// injection a malformed or stray message is a transport failure, not a local
// programming error, so it reports through the runtime instead of panicking.
func (n *node) wireFail(format string, args ...interface{}) {
	n.rt.fail(fmt.Errorf(format, args...))
}

// onActivate handles an ACTIVATE message on the communication thread: per
// §4.3, it "must unpack each aggregated activation, iterate over all local
// descendants of the task in question, determine which data are needed from
// the predecessor, and send GET DATA messages as necessary" — while this
// runs, the thread can do nothing else.
func (n *node) onActivate(_ core.Engine, _ core.Tag, data []byte, src int) {
	if n.dead {
		return
	}
	entries, trees, err := decodeActivates(n.actScratch, n.treeScratch, data)
	if err != nil {
		n.wireFail("parsec: rank %d: bad ACTIVATE from %d: %w", n.rank, src, err)
		return
	}
	n.actScratch, n.treeScratch = entries, trees
	// Message-count accounting is per AM, matching the sender's one
	// CountSend; all entries of one aggregated message share the sender's epoch,
	// so the first entry decides whether the message counts. Stale messages
	// stay uncounted on both ends: the restart zeroed the sender's counter.
	if len(entries) > 0 && entries[0].epoch == n.epoch {
		n.books.CountRecv()
	}
	for _, act := range entries {
		// Epoch check first: an activation sent before a crash restart
		// describes dataflow state that no longer exists. Dropping it here
		// (not a wire failure) is what makes the restart safe.
		if act.epoch != n.epoch {
			n.staleDrops.Inc()
			continue
		}
		// Unpacking one activation means iterating over every local
		// descendant of the completed task (§4.3), so the processing cost
		// grows with the descendant count. The one scan also collects, for
		// the deferred step, the descendants that wait for the data and
		// their highest priority; consumers that already executed before a
		// restart are skipped, though they still cost. Ownership and the
		// done set change only at a restart, which makes the step stale.
		o := n.newOp(opActivation)
		o.setAct(act)
		o.maxPrio = -1 << 62
		desc := 0
		n.succScratch = n.rt.tp.Successors(act.task, act.flow, n.succScratch[:0])
		for _, dep := range n.succScratch {
			if n.rankOf(dep.Task) != n.rank {
				continue
			}
			desc++
			if n.rt.isDone(dep.Task) {
				continue
			}
			n.waits.push(&o.waiters, dep.Task)
			o.nwait++
			if p := n.rt.tp.Priority(dep.Task); p > o.maxPrio {
				o.maxPrio = p
			}
		}
		n.submit(n.cfg.ActivateCost+sim.Duration(desc)*n.cfg.ActivateDesc, o)
	}
}

// forward sends act on to this rank's binomial children for the subtree it
// carries, stamped as a hop from here, and returns how many children there
// were. The split lives in scratch: each forward is encoded on the spot.
func (n *node) forward(act activation) int32 {
	tree := append(n.treeRanks[:0], int32(n.rank))
	tree = append(tree, act.subtree...)
	n.treeRanks = tree
	n.childScratch = treeSplit(n.childScratch[:0], tree)
	now := int64(n.eng.Now())
	for _, sub := range n.childScratch {
		fwd := act
		fwd.hopRank = int32(n.rank)
		fwd.hopSend = now
		fwd.subtree = sub[1:]
		n.encBuf = appendActivates(n.encBuf[:0], fwd)
		n.ce.SendAM(tagActivate, int(sub[0]), n.encBuf)
		n.activatesSent.Inc()
		n.activations.Inc()
		n.books.CountSend()
	}
	return int32(len(n.childScratch))
}

// processActivation is the deferred step of one received activation, o's
// (a restart between the AM callback and this step makes it stale:
// commOp.exec drops it). o carries the local consumers onActivate found; the
// chain passes to the flow record, or is released with the step's failure.
func (n *node) processActivation(o *commOp) {
	act := o.act
	key := flowKey{act.task, act.flow}
	if fd := n.flow(key); fd != nil {
		if fd.stolen {
			// A steal adopted this flow before our own activation arrived:
			// merge the real activation into the steal-created entry instead
			// of treating it as a protocol violation (steal_node.go).
			n.mergeActivation(key, fd, o)
			return
		}
		n.waits.drop(o.waiters)
		n.wireFail("parsec: duplicate activation for %v at rank %d", key, n.rank)
		return
	}
	fd := n.newFlow(flowAnnounced, act.size)
	fd.meta = act
	fd.meta.subtree = nil // it aliases o's storage
	n.putFlow(key, fd)
	// Local descendants wait for the data.
	fd.waiters, fd.localRefs = o.waiters, o.nwait

	// Forward the activation down the multicast tree immediately; the
	// children's GET DATA requests queue here until our copy lands.
	if len(act.subtree) > 0 {
		fd.expectedGets = n.forward(act)
	}

	if fd.waiters.empty() && len(act.subtree) == 0 {
		n.wireFail("parsec: activation for %v at rank %d has no consumers", key, n.rank)
		return
	}

	// Control dependences (PaRSEC CTL flows) carry no data: the activation
	// itself satisfies the consumers, with no GET DATA and no put.
	if act.size == 0 {
		fd.state = flowReady
		fd.expectedGets = 0
		for t := range n.waits.drain(&fd.waiters) {
			n.satisfy(t) // localRefs drop when the consumers execute
		}
		n.maybeClean(key, fd)
		return
	}

	if n.cfg.FetchLazy && len(act.subtree) == 0 {
		// Defer the fetch until a consumer is otherwise unblocked (§4.1's
		// defer branch). Forwarding ranks always fetch immediately: their
		// subtree is waiting.
		allBlocked := true
		for w := range n.waits.all(fd.waiters) {
			st := n.stateOf(w)
			n.appendLazy(st, key)
			if st.remaining == st.nlazy {
				allBlocked = false
			}
		}
		if allBlocked {
			n.fetchDeferred.Inc()
			return
		}
		for w := range n.waits.all(fd.waiters) {
			// Remove the bookkeeping added above; the fetch starts now.
			n.unlinkLazy(n.stateOf(w), key)
		}
	}

	// Fetch now or defer by priority pressure (§4.1).
	n.requestFetch(key, fd, o.maxPrio)
}

// appendLazy adds key at the end of st's lazy-fetch chain. st points into
// n.tasks; the cells live in n.lazy, so taking one leaves st valid.
func (n *node) appendLazy(st *taskState, key flowKey) {
	c := n.lazy.take(key)
	if st.nlazy == 0 {
		st.lazyHead = c
	} else {
		last := st.lazyHead
		for n.lazy.at(last).next != noCell {
			last = n.lazy.at(last).next
		}
		n.lazy.at(last).next = c
	}
	st.nlazy++
}

// unlinkLazy removes the first cell holding key from st's chain, if any.
func (n *node) unlinkLazy(st *taskState, key flowKey) {
	if st.nlazy == 0 {
		return
	}
	prev := int32(noCell)
	for c := st.lazyHead; c != noCell; prev, c = c, n.lazy.at(c).next {
		if n.lazy.at(c).v != key {
			continue
		}
		if prev == noCell {
			st.lazyHead = n.lazy.at(c).next
		} else {
			n.lazy.at(prev).next = n.lazy.at(c).next
		}
		st.nlazy--
		n.lazy.release(c)
		return
	}
}

// requestFetch starts a fetch subject to the concurrency cap.
func (n *node) requestFetch(key flowKey, fd *flowData, prio int64) {
	if fd.state != flowAnnounced {
		return
	}
	if n.activeFetches < n.cfg.FetchCap {
		n.startFetch(key, fd)
	} else {
		fd.state = flowQueued
		n.fetchDeferred.Inc()
		n.fetchQ.Push(prio, key.task, key.flow)
	}
}

// startFetch sends GET DATA to the tree parent (the data source for this
// rank) with our registered landing buffer.
func (n *node) startFetch(key flowKey, fd *flowData) {
	if n.rt.obs != nil {
		n.rt.obs.FetchStart(n.rank, key.task, key.flow, fd.size, n.eng.Now())
	}
	n.activeFetches++
	fd.state = flowFetching
	fd.ref = n.rt.tp.MakeCopy(key.task, key.flow, fd.size)
	fd.lreg = n.ce.MemReg(fd.ref.Buf)
	fd.registered = true
	g := getData{task: key.task, flow: key.flow, epoch: n.epoch, rreg: fd.lreg}
	n.getsSent.Inc()
	n.books.CountSend()
	n.encBuf = g.appendTo(n.encBuf[:0])
	n.ce.SendAM(tagGetData, int(fd.meta.hopRank), n.encBuf)
}

// onGetData serves a data request at a rank that holds (or will hold) the
// flow: the owner, or a multicast forwarder.
func (n *node) onGetData(_ core.Engine, _ core.Tag, data []byte, src int) {
	if n.dead {
		return
	}
	g, err := decodeGetData(data)
	if err != nil {
		n.wireFail("parsec: rank %d: bad GET DATA from %d: %w", n.rank, src, err)
		return
	}
	// A request from before a restart points at a landing registration that
	// no longer belongs to live dataflow state; drop it, the requester will
	// re-request under the new epoch if it still needs the data.
	if !n.admit(g.epoch) {
		return
	}
	key := flowKey{g.task, g.flow}
	fd := n.flow(key)
	if fd == nil {
		n.wireFail("parsec: GET DATA for unknown flow %v at rank %d", key, n.rank)
		return
	}
	req := getReq{requester: src, epoch: g.epoch, rreg: g.rreg}
	if fd.state != flowReady {
		// Forwarder whose own copy is still in flight: queue the request.
		n.gets.push(&fd.pendingGets, req)
		return
	}
	n.submitServePut(key, fd, req)
}

func (n *node) submitServePut(key flowKey, fd *flowData, req getReq) {
	o := n.newOp(opServePut)
	o.key, o.fd, o.req = key, fd, req
	n.submit(n.cfg.GetDataCost, o)
}

// servePut starts the put that answers one GET DATA.
func (n *node) servePut(key flowKey, fd *flowData, req getReq) {
	fd.mustLive()
	if !fd.registered {
		fd.lreg = n.ce.MemReg(fd.ref.Buf)
		fd.registered = true
	}
	// The put completion is stamped with the REQUEST's epoch, not the
	// server's: if a restart happened while the request was queued, the
	// requester must recognize the landing data as stale and drop it.
	meta := putMeta{
		task: key.task, flow: key.flow, epoch: req.epoch,
		root: fd.meta.root, rootSend: fd.meta.rootSend,
		hopRank: int32(n.rank), hopSend: int64(n.eng.Now()),
	}
	// The put's remote completion is the counted message: until the
	// requester accepts it, this send vetoes termination.
	n.books.CountSend()
	done := n.newOp(opPutDone)
	done.key, done.fd = key, fd
	n.encBuf = meta.appendTo(n.encBuf[:0])
	n.ce.Put(core.PutArgs{
		LReg: fd.lreg, RReg: req.rreg, Size: fd.size, Remote: req.requester,
		LocalCB: done.putDone, RTag: tagPutDone, RCBData: n.encBuf,
	})
}

// onPutDone runs at the requester when the data has landed: release local
// waiters, serve queued children, and admit the next deferred fetch.
func (n *node) onPutDone(_ core.Engine, _ core.Tag, data []byte, src int) {
	if n.dead {
		return
	}
	m, err := decodePutMeta(data)
	if err != nil {
		n.wireFail("parsec: rank %d: bad put completion from %d: %w", n.rank, src, err)
		return
	}
	// Epoch check BEFORE the store lookup: a put that raced a restart lands
	// in a leaked registration and completes against wiped state — stale,
	// not a protocol violation.
	if !n.admit(m.epoch) {
		return
	}
	key := flowKey{m.task, m.flow}
	fd := n.flow(key)
	if fd == nil || fd.state != flowFetching {
		n.wireFail("parsec: unexpected put completion for %v at rank %d", key, n.rank)
		return
	}
	o := n.newOp(opDeliver)
	o.key, o.fd = key, fd
	o.act = activation{rootSend: m.rootSend, hopSend: m.hopSend}
	n.submit(n.cfg.DeliverCost, o)
}

// deliver is the deferred step of a landed put: release local waiters, serve
// queued children, and admit the next deferred fetch. stamps holds the
// put's rootSend and hopSend.
func (n *node) deliver(key flowKey, fd *flowData, stamps activation) {
	fd.mustLive()
	fd.state = flowReady
	n.bytesFetched.Add(uint64(fd.size))
	if n.rt.obs != nil {
		n.rt.obs.DataArrived(n.rank, key.task, key.flow, fd.size, n.eng.Now())
	}
	n.rt.tracer.Sample(stamps.rootSend, stamps.hopSend, n.rank, n.eng.Now())

	for t := range n.waits.drain(&fd.waiters) {
		n.satisfy(t)
	}
	for req := range n.gets.drain(&fd.pendingGets) {
		n.submitServePut(key, fd, req)
	}

	n.activeFetches--
	if n.fetchQ.Len() > 0 && n.activeFetches < n.cfg.FetchCap {
		// A queued flow cannot have been retired (only ready copies
		// are), and a restart empties queue and store together.
		it := n.fetchQ.Pop()
		next := flowKey{it.task, it.flow}
		n.startFetch(next, n.flow(next))
	}
	n.maybeClean(key, fd)
}

// maybeClean retires a flow copy once every local consumer has executed and
// every child has been served (Figure 1's "Cleanup if all done").
func (n *node) maybeClean(key flowKey, fd *flowData) {
	if fd.state != flowReady || fd.localRefs > 0 || fd.servedGets < fd.expectedGets {
		return
	}
	if fd.registered {
		n.ce.MemDereg(fd.lreg)
	}
	n.store.remove(key)
	n.retireFlow(fd)
}
