package parsec

import (
	"cmp"
	"fmt"
	"slices"

	"amtlci/internal/sim"
)

// GraphPool is an explicit task-graph Taskpool: tasks and edges are inserted
// one by one, in the style of PaRSEC's dynamic task discovery interface. It
// suits small and irregular graphs (examples, tests, the benchmark ladder);
// regular graphs implement Taskpool directly with computed dependences (see
// internal/cholesky, internal/hicma and the §6.2/§6.3 microbenchmark graph
// in internal/bench).
type GraphPool struct {
	name    string
	classes []TaskClass
	ranks   int
	real    bool

	// tasks holds the records in insertion order and index maps a TaskID to
	// its position. RankOf, Cost, Priority, Inputs, Successors and Execute
	// each look their task up, so the index shares the runtime's flat table;
	// entries are only ever added, and after construction only read.
	//
	// Tasks, output flows and edges live in three pool-wide arenas, so adding
	// one allocates nothing of its own and the collector walks a few chunks,
	// not five slices per task. flows holds every task's output flows back to
	// back (a task names its run by offset and count); edges holds every
	// dependence twice — on its producer flow's consumer list and on its
	// consumer's input list — each list threaded through the arena in Link
	// order.
	tasks arena[graphTask]
	index flatTable[int32]
	flows arena[graphFlow]
	edges arena[edge]

	perRank []int64

	// out is the slice Execute returns, reused by the next call (the
	// Taskpool contract lends it to the runtime until then).
	out []DataRef

	// ExecuteFn, if non-nil, runs for every task (real numerics).
	ExecuteFn func(t TaskID, inputs []DataRef, outputs []DataRef)
}

type graphTask struct {
	rank   int
	cost   sim.Duration
	prio   int64
	flow0  int32 // the task's output flows are flows[flow0 : flow0+nflows]
	nflows int32
	inputs edgeList
}

// graphFlow is one output flow: its payload size and its consumers.
type graphFlow struct {
	size  int64
	succs edgeList
}

// edge is one entry of a dependence list; next is the 1-based position of the
// list's following entry in GraphPool.edges, 0 at the end.
type edge struct {
	dep  Dep
	next int32
}

// edgeList is a list threaded through GraphPool.edges: 1-based positions of
// its first and last entry, both 0 while it is empty.
type edgeList struct{ head, tail int32 }

// arena is an append-only sequence kept in chunks of arenaChunk entries, so
// growing it never copies, or abandons to the collector, what it already
// holds: a large graph allocates the bytes it ends up using, once. Only the
// first chunk grows by doubling, which keeps a five-task pool small.
type arena[T any] struct {
	chunks [][]T
	n      int32
}

const arenaChunk = 1 << 10

// push appends v and returns its position.
func (a *arena[T]) push(v T) int32 {
	k := int(a.n / arenaChunk)
	if k == len(a.chunks) {
		var chunk []T
		if k > 0 {
			chunk = make([]T, 0, arenaChunk)
		}
		a.chunks = append(a.chunks, chunk)
	}
	a.chunks[k] = append(a.chunks[k], v)
	a.n++
	return a.n - 1
}

// at returns the entry at position i. The pointer stays valid for entries
// beyond the first chunk; treat it as dying with the next push anyway.
func (a *arena[T]) at(i int32) *T {
	u := uint32(i)
	return &a.chunks[u/arenaChunk][u%arenaChunk]
}

// NewGraphPool creates an empty pool for the given rank count. real selects
// byte-backed payloads; otherwise payloads are virtual.
func NewGraphPool(name string, ranks int, real bool) *GraphPool {
	return &GraphPool{
		name:    name,
		classes: []TaskClass{{Name: "task"}},
		ranks:   ranks,
		real:    real,
		perRank: make([]int64, ranks),
	}
}

// AddTask inserts a task with the given placement, cost, priority, and
// output flow sizes. All tasks share class 0.
func (g *GraphPool) AddTask(index int64, rank int, cost sim.Duration, prio int64, flowSizes ...int64) TaskID {
	t := TaskID{Class: 0, Index: index}
	if g.lookup(t) != nil {
		panic(fmt.Sprintf("parsec: duplicate task %v", t))
	}
	if rank < 0 || rank >= g.ranks {
		panic(fmt.Sprintf("parsec: task %v on invalid rank %d", t, rank))
	}
	pos, _ := g.index.insert(flowKey{task: t})
	*pos = g.tasks.push(graphTask{
		rank:   rank,
		cost:   cost,
		prio:   prio,
		flow0:  g.flows.n,
		nflows: int32(len(flowSizes)),
	})
	for _, size := range flowSizes {
		g.flows.push(graphFlow{size: size})
	}
	g.perRank[rank]++
	return t
}

// Link adds a dependence: consumer reads producer's output flow. A consumer
// reading the same flow twice must be linked twice.
func (g *GraphPool) Link(producer TaskID, flow int32, consumer TaskID) {
	p := g.lookup(producer)
	if p == nil {
		panic(fmt.Sprintf("parsec: link from unknown producer %v", producer))
	}
	c := g.lookup(consumer)
	if c == nil {
		panic(fmt.Sprintf("parsec: link to unknown consumer %v", consumer))
	}
	if flow < 0 || flow >= p.nflows {
		panic(fmt.Sprintf("parsec: producer %v has no flow %d", producer, flow))
	}
	g.link(&g.flows.at(p.flow0+flow).succs, Dep{Task: consumer, Flow: flow})
	g.link(&c.inputs, Dep{Task: producer, Flow: flow})
}

// link appends d to list l (which lives in g.tasks or g.flows, not in the
// arena that grows here).
func (g *GraphPool) link(l *edgeList, d Dep) {
	at := g.edges.push(edge{dep: d}) + 1
	if l.tail == 0 {
		l.head = at
	} else {
		g.edges.at(l.tail - 1).next = at
	}
	l.tail = at
}

// appendList appends l's dependences to out in Link order.
func (g *GraphPool) appendList(out []Dep, l edgeList) []Dep {
	for at := l.head; at != 0; {
		e := g.edges.at(at - 1)
		out = append(out, e.dep)
		at = e.next
	}
	return out
}

// lookup returns t's record, or nil. The pointer aims into g.tasks and is
// invalidated by the next AddTask.
func (g *GraphPool) lookup(t TaskID) *graphTask {
	if pos := g.index.get(flowKey{task: t}); pos != nil {
		return g.tasks.at(*pos)
	}
	return nil
}

func (g *GraphPool) task(t TaskID) *graphTask {
	gt := g.lookup(t)
	if gt == nil {
		panic(fmt.Sprintf("parsec: unknown task %v", t))
	}
	return gt
}

// Name implements Taskpool.
func (g *GraphPool) Name() string { return g.name }

// Classes implements Taskpool.
func (g *GraphPool) Classes() []TaskClass { return g.classes }

// RankOf implements Taskpool.
func (g *GraphPool) RankOf(t TaskID) int { return g.task(t).rank }

// Cost implements Taskpool.
func (g *GraphPool) Cost(t TaskID) sim.Duration { return g.task(t).cost }

// Priority implements Taskpool.
func (g *GraphPool) Priority(t TaskID) int64 { return g.task(t).prio }

// Inputs implements Taskpool.
func (g *GraphPool) Inputs(t TaskID, out []Dep) []Dep {
	return g.appendList(out, g.task(t).inputs)
}

// Successors implements Taskpool.
func (g *GraphPool) Successors(t TaskID, flow int32, out []Dep) []Dep {
	gt := g.task(t)
	if flow < 0 || flow >= gt.nflows {
		panic(fmt.Sprintf("parsec: task %v has no flow %d", t, flow))
	}
	return g.appendList(out, g.flows.at(gt.flow0+flow).succs)
}

// Roots implements Taskpool.
func (g *GraphPool) Roots(rank int, emit func(TaskID)) {
	// Deterministic, insertion-independent order: by (Class, Index).
	var ids []TaskID
	g.index.each(func(k flowKey, pos *int32) {
		if gt := g.tasks.at(*pos); gt.rank == rank && gt.inputs.head == 0 {
			ids = append(ids, k.task)
		}
	})
	slices.SortFunc(ids, func(a, b TaskID) int {
		if c := cmp.Compare(a.Class, b.Class); c != 0 {
			return c
		}
		return cmp.Compare(a.Index, b.Index)
	})
	for _, t := range ids {
		emit(t)
	}
}

// LocalTasks implements Taskpool.
func (g *GraphPool) LocalTasks(rank int) int64 { return g.perRank[rank] }

// Execute implements Taskpool: it allocates the declared flow sizes, runs
// ExecuteFn if set, and returns the outputs in the pool's scratch slice, so a
// GraphPool runs on a serial domain only. ExecuteFn must not keep outputs
// past its call either.
func (g *GraphPool) Execute(t TaskID, inputs []DataRef) []DataRef {
	gt := g.task(t)
	outputs := g.out[:0]
	for i := int32(0); i < gt.nflows; i++ {
		outputs = append(outputs, g.alloc(g.flows.at(gt.flow0+i).size))
	}
	g.out = outputs
	if g.ExecuteFn != nil {
		g.ExecuteFn(t, inputs, outputs)
	}
	return outputs
}

// MakeCopy implements Taskpool.
func (g *GraphPool) MakeCopy(t TaskID, flow int32, size int64) DataRef {
	return g.alloc(size)
}

func (g *GraphPool) alloc(n int64) DataRef {
	if g.real {
		return RealData(make([]byte, n))
	}
	return VirtualData(n)
}
