package parsec

import (
	"cmp"
	"slices"
)

// prioItem is an item prioQueue.Pop returns. The ready queue orders tasks
// (flow unused); the fetch queue orders deferred flows, named by producing
// task and flow.
type prioItem struct {
	priority int64
	task     TaskID
	flow     int32
}

// prioQueue is a max-priority queue (highest priority pops first; FIFO among
// equals), kept as one FIFO run per distinct priority: runs holds the
// priorities that have queued items, sorted ascending, so the run to pop is
// the last one, and each run's items are a list in cells. Pop is O(1) and
// reads its run in order; Push binary-searches the priorities and opens a
// run only for a priority not yet queued. A run empties only from the top,
// so no run in runs is ever empty.
//
// The ping-pong queues thousands of items under a handful of priorities, so
// almost every Pop reads the head of one long run. cells is the shard's
// arena (recordSlab), shared by both queues of every rank on the shard, as
// the waiter and GET cells are: a slice per priority, or an arena per queue,
// would be paid per rank and per run. Neither Push nor Pop allocates once
// runs and the arena have grown to their in-flight peak.
type prioQueue struct {
	runs  []prioRun
	cells *cellArena[queued]
	n     int
}

// prioRun is the FIFO of the items queued under one priority.
type prioRun struct {
	priority int64
	items    cellList
}

// queued is a queued item without its priority, which its run holds.
type queued struct {
	task TaskID
	flow int32
}

func (q *prioQueue) Len() int { return q.n }

func (q *prioQueue) Push(priority int64, task TaskID, flow int32) {
	i, found := slices.BinarySearchFunc(q.runs, priority, func(r prioRun, p int64) int { return cmp.Compare(r.priority, p) })
	if !found {
		q.runs = slices.Insert(q.runs, i, prioRun{priority: priority})
	}
	q.cells.push(&q.runs[i].items, queued{task, flow})
	q.n++
}

// Pop removes and returns the first item in queue order; it panics on an
// empty queue.
func (q *prioQueue) Pop() prioItem {
	top := &q.runs[len(q.runs)-1]
	it := q.cells.pop(&top.items)
	if top.items.empty() {
		q.runs = q.runs[:len(q.runs)-1]
	}
	q.n--
	return prioItem{priority: top.priority, task: it.task, flow: it.flow}
}

// reset empties the queue, retiring its cells to the arena.
func (q *prioQueue) reset() {
	for _, r := range q.runs {
		q.cells.drop(r.items)
	}
	q.runs, q.n = q.runs[:0], 0
}
