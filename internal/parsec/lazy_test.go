package parsec

import (
	"slices"
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/sim"
)

// fetchOrder records the flows whose fetches start, in order.
type fetchOrder struct {
	NopObserver
	keys []flowKey
}

func (o *fetchOrder) FetchStart(_ int, p TaskID, flow int32, _ int64, _ sim.Time) {
	o.keys = append(o.keys, flowKey{p, flow})
}

// TestLazyChainLaunchesInAnnouncementOrder drives one task's lazy-fetch chain
// through the arena's awkward cases: a middle cell is unlinked, its slot is
// reused by another task's chain, and a later announcement goes to the end.
// When the task is otherwise unblocked, its deferred fetches must start in
// announcement order — the order the per-task lists had, and the order the
// GET DATA messages, and so virtual time, depend on — and the other task's
// chain must be intact.
func TestLazyChainLaunchesInAnnouncementOrder(t *testing.T) {
	const size = 1 << 10
	g := NewGraphPool("lazy", 2, false)
	var prod []TaskID
	for i := 0; i < 6; i++ {
		prod = append(prod, g.AddTask(int64(i), 0, sim.Microsecond, 0, size))
	}
	local := g.AddTask(10, 1, sim.Microsecond, 0, 0)
	c := g.AddTask(11, 1, sim.Microsecond, 0)
	d := g.AddTask(12, 1, sim.Microsecond, 0)
	for _, p := range prod[:5] {
		g.Link(p, 0, c)
	}
	g.Link(local, 0, c)
	g.Link(prod[5], 0, d)

	s := stack.Build(stack.DefaultOptions(stack.LCI, 2))
	cfg := DefaultConfig(1)
	cfg.FetchLazy = true
	rt := New(s.Dom, s.Engines, g, cfg)
	obs := &fetchOrder{}
	rt.SetObserver(obs)
	n := rt.nodes[1]
	key := func(i int) flowKey { return flowKey{prod[i], 0} }
	for i := range prod {
		fd := n.newFlow(flowAnnounced, size)
		fd.meta = activation{task: prod[i], size: size, epoch: n.epoch}
		n.putFlow(key(i), fd)
	}

	// c waits on six inputs; four announcements defer, then the second one
	// is withdrawn (its fetch started on another consumer's behalf).
	for i := 0; i < 4; i++ {
		n.appendLazy(n.stateOf(c), key(i))
	}
	n.unlinkLazy(n.stateOf(c), key(1))
	freed := n.lazy.free
	n.appendLazy(n.stateOf(d), key(5))
	if st := n.stateOf(d); st.lazyHead != freed || st.nlazy != 1 {
		t.Fatalf("d's cell is %d (chain of %d), want the unlinked cell %d reused", st.lazyHead, st.nlazy, freed)
	}
	n.appendLazy(n.stateOf(c), key(4))
	if st := n.stateOf(c); st.remaining != 6 || st.nlazy != 4 {
		t.Fatalf("c: remaining %d, %d lazy, want 6 and 4", st.remaining, st.nlazy)
	}

	n.satisfy(c) // the local input: five left, four of them lazy
	if len(obs.keys) != 0 {
		t.Fatalf("fetches started while c was still blocked: %v", obs.keys)
	}
	n.satisfy(c) // a fifth remote input landed unannounced: four left, all lazy
	if want := []flowKey{key(0), key(2), key(3), key(4)}; !slices.Equal(obs.keys, want) {
		t.Fatalf("deferred fetches started in order %v, want %v", obs.keys, want)
	}
	if st := n.stateOf(c); st.nlazy != 0 {
		t.Fatalf("c keeps %d lazy cells after its fetches launched", st.nlazy)
	}
	if st := n.stateOf(d); st.nlazy != 1 || n.lazy.at(st.lazyHead).v != key(5) || n.lazy.at(st.lazyHead).next != noCell {
		t.Fatalf("d's chain changed under c's launch: %d cells, head %+v", st.nlazy, n.lazy.at(st.lazyHead))
	}
}
