package parsec

// prioItem is an entry in a max-priority queue with FIFO tie-breaking. The
// ready queue orders tasks (flow unused); the fetch queue orders deferred
// flows, named by producing task and flow.
type prioItem struct {
	priority int64
	seq      uint64
	task     TaskID
	flow     int32
}

// before is the queue's strict total order: higher priority first, and among
// equals the earlier push. seq is unique per queue, so any correct heap pops
// one and the same sequence.
func (a *prioItem) before(b *prioItem) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.seq < b.seq
}

// prioQueue is a max-priority queue (highest priority pops first; FIFO among
// equals): a binary heap over a plain slice of items, so neither Push nor
// Pop boxes or allocates once the slice has grown to the queue's high-water
// mark. The runtime uses one for ready tasks and one for deferred fetches.
type prioQueue struct {
	h   []prioItem
	seq uint64
}

func (q *prioQueue) Len() int { return len(q.h) }

func (q *prioQueue) Push(priority int64, task TaskID, flow int32) {
	q.seq++
	q.h = append(q.h, prioItem{priority: priority, seq: q.seq, task: task, flow: flow})
	// Sift up.
	h := q.h
	i := len(h) - 1
	it := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !it.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
}

// Pop removes and returns the first item in queue order; it panics on an
// empty queue.
func (q *prioQueue) Pop() prioItem {
	h := q.h
	top := h[0]
	last := len(h) - 1
	it := h[last]
	h = h[:last]
	q.h = h
	// Sift the former last item down from the root.
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if r := child + 1; r < last && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&it) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if last > 0 {
		h[i] = it
	}
	return top
}
