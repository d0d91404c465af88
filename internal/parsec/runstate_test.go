package parsec

import (
	"runtime"
	"testing"
	"weak"

	"amtlci/internal/core/stack"
	"amtlci/internal/fabric"
	recov "amtlci/internal/recover"
	"amtlci/internal/rel"
	"amtlci/internal/sim"
)

// recordWatch is a Taskpool that, at every Execute, takes weak pointers to
// every flow record in a rank's store, every step queued for a communication
// thread, every cell of a lazy-fetch chain and every cell of a flow's waiter
// list: by the end of the run, the sets name every such record seen in
// flight.
type recordWatch struct {
	*GraphPool
	rt    *Runtime
	flows map[weak.Pointer[flowData]]bool
	ops   map[weak.Pointer[commOp]]bool
	cells map[weak.Pointer[cell[flowKey]]]bool
	waits map[weak.Pointer[cell[TaskID]]]bool
}

func (w *recordWatch) Execute(t TaskID, in []DataRef) []DataRef {
	for _, n := range w.rt.nodes {
		n.store.each(func(_ flowKey, fd **flowData) {
			w.flows[weak.Make(*fd)] = true
			for c := (*fd).waiters.head; c != noCell; c = n.waits.at(c).next {
				w.waits[weak.Make(n.waits.at(c))] = true
			}
		})
		for o := n.opHead; o != nil; o = o.next {
			w.ops[weak.Make(o)] = true
		}
		n.tasks.each(func(_ flowKey, st *taskState) {
			for c, i := st.lazyHead, int32(0); i < st.nlazy; c, i = n.lazy.at(c).next, i+1 {
				w.cells[weak.Make(n.lazy.at(c))] = true
			}
		})
	}
	return w.GraphPool.Execute(t, in)
}

// live counts the weak pointers of set whose target is still reachable.
func live[T any](set map[weak.Pointer[T]]bool) int {
	k := 0
	for p := range set {
		if p.Value() != nil {
			k++
		}
	}
	return k
}

// watchedGraph is a layered DAG over four ranks whose tasks mostly take two or
// more inputs, with payloads on both the eager and the rendezvous path of
// each backend, so that under FetchLazy inputs announced early wait in lazy
// chains for their siblings.
func watchedGraph() *GraphPool {
	const ranks = 4
	rng := sim.NewRNG(7)
	g := NewGraphPool("watched", ranks, false)
	var prev []TaskID
	idx := int64(0)
	for l := 0; l < 10; l++ {
		var cur []TaskID
		for i := 0; i < 8; i++ {
			size := int64(1 << 10)
			if rng.Intn(3) == 0 {
				size = 48 << 10
			}
			tk := g.AddTask(idx, rng.Intn(ranks), sim.Duration(5+rng.Intn(20))*sim.Microsecond, int64(rng.Intn(8)), size)
			idx++
			for _, p := range prev {
				if rng.Intn(3) == 0 {
					g.Link(p, 0, tk)
				}
			}
			cur = append(cur, tk)
		}
		prev = cur
	}
	return g
}

// watchedRun runs watchedGraph under FetchLazy with a recordWatch and returns
// the watch and the finished runtime. crashAt > 0 crashes rank 1 then, with
// recovery armed.
func watchedRun(t *testing.T, b stack.Backend, steal bool, crashAt sim.Duration) (*recordWatch, *Runtime, sim.Duration) {
	t.Helper()
	const ranks = 4
	o := stack.DefaultOptions(b, ranks)
	o.Fabric.Jitter = 0
	o.MPICE.MaxTransfers = 2 // Open MPI defers puts, and refill starts them
	if crashAt > 0 {
		o.Faults = &fabric.FaultConfig{Crashes: []fabric.NodeCrash{{Rank: 1, At: sim.Time(crashAt)}}}
		rc := rel.DefaultConfig()
		rc.EnableHeartbeats()
		o.Rel = &rc
	}
	s := stack.Build(o)
	cfg := DefaultConfig(2)
	cfg.Jitter = 0
	cfg.Steal = steal
	cfg.FetchLazy = true
	cfg.Metrics = s.Metrics
	w := &recordWatch{GraphPool: watchedGraph(), flows: map[weak.Pointer[flowData]]bool{},
		ops: map[weak.Pointer[commOp]]bool{}, cells: map[weak.Pointer[cell[flowKey]]]bool{},
		waits: map[weak.Pointer[cell[TaskID]]]bool{}}
	rt := New(s.Dom, s.Engines, w, cfg)
	w.rt = rt
	if crashAt > 0 {
		mgrs := make([]*recov.Manager, ranks)
		for i, ce := range s.Engines {
			mgrs[i] = recov.NewManager(ce, s.Metrics)
		}
		rt.EnableRecovery(RecoveryConfig{Managers: mgrs, RestartDelay: 100 * sim.Microsecond})
		s.Fab.OnCrash(rt.KillRank)
		rt.OnTerminate(s.Rel.StopHeartbeats)
		s.Rel.WatchProgress(rt.Progress)
	}
	d, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if crashAt > 0 && rt.Metrics().Total("parsec", "restarts") != 1 {
		t.Fatalf("crash at %v: %d restarts, want 1", crashAt, rt.Metrics().Total("parsec", "restarts"))
	}
	return w, rt, d
}

// TestRunStateIsCollectable checks that the run-scoped records — flow
// records and communication-thread steps, carved from shard slabs, and the
// lazy-fetch and waiter cells — die with the run: once Run has returned, nothing the
// finished Runtime or its stack keeps for WorkerBusy, Tracer and Metrics
// reaches them, so one collection frees them, and with them their chunks. A
// single stale reference anywhere in the stack — a callback an engine keeps
// past its use, a list the run forgot to drop — would pin a whole chunk, and
// fails here. Both backends, with stealing, and through a crash with
// recovery.
func TestRunStateIsCollectable(t *testing.T) {
	for _, b := range stack.Backends {
		t.Run(b.String(), func(t *testing.T) {
			_, _, makespan := watchedRun(t, b, false, 0)
			for _, c := range []struct {
				name    string
				steal   bool
				crashAt sim.Duration
			}{
				{"plain", false, 0},
				{"steal", true, 0},
				{"crash", false, makespan * 2 / 5},
			} {
				t.Run(c.name, func(t *testing.T) {
					w, rt, _ := watchedRun(t, b, c.steal, c.crashAt)
					if len(w.flows) == 0 || len(w.ops) == 0 || len(w.cells) == 0 || len(w.waits) == 0 {
						t.Fatalf("records seen in flight: %d flows, %d steps, %d lazy cells, %d waiter cells; want some of each",
							len(w.flows), len(w.ops), len(w.cells), len(w.waits))
					}
					runtime.GC()
					if f, o, c, wc := live(w.flows), live(w.ops), live(w.cells), live(w.waits); f+o+c+wc > 0 {
						t.Fatalf("run-scoped records outlive the run: %d of %d flows, %d of %d steps, %d of %d lazy cells, %d of %d waiter cells",
							f, len(w.flows), o, len(w.ops), c, len(w.cells), wc, len(w.waits))
					}
					runtime.KeepAlive(rt)
				})
			}
		})
	}
}
