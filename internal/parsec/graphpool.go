package parsec

import (
	"cmp"
	"fmt"
	"slices"

	"amtlci/internal/sim"
)

// GraphPool is an explicit task-graph Taskpool: tasks and edges are inserted
// one by one, in the style of PaRSEC's dynamic task discovery interface. It
// suits small and irregular graphs (examples, tests, the microbenchmarks);
// large regular algorithms implement Taskpool directly with computed
// dependences (see internal/cholesky and internal/hicma).
type GraphPool struct {
	name    string
	classes []TaskClass
	ranks   int
	real    bool

	// tasks holds the records in insertion order and index maps a TaskID to
	// its position. The lookup runs on every Taskpool call of every rank (a
	// dozen per executed task), so it shares the runtime's flat table;
	// entries are only ever added, and after construction only read.
	tasks []graphTask
	index flatTable[int32]

	perRank []int64

	// ExecuteFn, if non-nil, runs for every task (real numerics).
	ExecuteFn func(t TaskID, inputs []DataRef, outputs []DataRef)
}

type graphTask struct {
	rank   int
	cost   sim.Duration
	prio   int64
	flows  []int64 // output sizes
	inputs []Dep
	succs  [][]Dep // per flow
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
	*pos = int32(len(g.tasks))
	g.tasks = append(g.tasks, graphTask{
		rank:  rank,
		cost:  cost,
		prio:  prio,
		flows: append([]int64(nil), flowSizes...),
		succs: make([][]Dep, len(flowSizes)),
	})
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
	if int(flow) >= len(p.flows) {
		panic(fmt.Sprintf("parsec: producer %v has no flow %d", producer, flow))
	}
	p.succs[flow] = append(p.succs[flow], Dep{Task: consumer, Flow: flow})
	c.inputs = append(c.inputs, Dep{Task: producer, Flow: flow})
}

// lookup returns t's record, or nil. The pointer aims into g.tasks and is
// invalidated by the next AddTask.
func (g *GraphPool) lookup(t TaskID) *graphTask {
	if pos := g.index.get(flowKey{task: t}); pos != nil {
		return &g.tasks[*pos]
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
	return append(out, g.task(t).inputs...)
}

// Successors implements Taskpool.
func (g *GraphPool) Successors(t TaskID, flow int32, out []Dep) []Dep {
	return append(out, g.task(t).succs[flow]...)
}

// Roots implements Taskpool.
func (g *GraphPool) Roots(rank int, emit func(TaskID)) {
	// Deterministic, insertion-independent order: by (Class, Index).
	var ids []TaskID
	g.index.each(func(k flowKey, pos *int32) {
		if gt := &g.tasks[*pos]; gt.rank == rank && len(gt.inputs) == 0 {
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
// ExecuteFn if set, and returns the outputs.
func (g *GraphPool) Execute(t TaskID, inputs []DataRef) []DataRef {
	flows := g.task(t).flows
	outputs := make([]DataRef, len(flows))
	for i, size := range flows {
		outputs[i] = g.alloc(size)
	}
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
