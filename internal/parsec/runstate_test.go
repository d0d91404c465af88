package parsec

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
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
// list, and to every message-path record its engine and library hold and
// each one's payload slab: by the end of the run, the sets name every such
// record seen in flight or in a free list.
type recordWatch struct {
	*GraphPool
	rt    *Runtime
	stack *stack.Stack
	flows map[weak.Pointer[flowData]]bool
	ops   map[weak.Pointer[commOp]]bool
	cells map[weak.Pointer[cell[flowKey]]]bool
	waits map[weak.Pointer[cell[TaskID]]]bool
	// comm holds the engine and library records by type ("mpi.wire"), and
	// slabs their payload slabs by the record type that owns them.
	comm  map[string]map[weak.Pointer[byte]]bool
	slabs map[string]map[weak.Pointer[byte]]bool
}

// commRecords names the message-path records the engines and libraries
// recycle, with the fields that hold each one's own payload slab.
var commRecords = map[string][]string{
	"mpice.sendRec":  {"buf"},
	"mpice.xferSlot": {"rcbData"},
	"mpi.wire":       {"data"},
	"mpi.Request":    {"slab"},
	"lcice.handle":   {"data"},
	"lcice.sendOp":   {"buf"},
	"lci.packet":     {"data", "xdata"},
	"lci.directOp":   nil,
}

// backendRecords lists the commRecords each backend's engine and library
// make.
var backendRecords = map[stack.Backend][]string{
	stack.MPI: {"mpice.sendRec", "mpice.xferSlot", "mpi.wire", "mpi.Request"},
	stack.LCI: {"lcice.handle", "lcice.sendOp", "lci.packet", "lci.directOp"},
}

// commPackages are the packages whose values watchComm walks through: the
// engines, their libraries, and the free lists they keep (package sim).
var commPackages = map[string]bool{
	"amtlci/internal/core": true, "amtlci/internal/core/mpice": true, "amtlci/internal/core/lcice": true,
	"amtlci/internal/mpi": true, "amtlci/internal/lci": true,
}

// commWalk is one walk of the engines' and libraries' state: the records it
// met, by address and type, and the addresses of the records embedded in
// other objects.
type commWalk struct {
	seen     map[unsafe.Pointer]bool
	records  map[unsafe.Pointer]string
	embedded map[unsafe.Pointer]bool
}

func newCommWalk() *commWalk {
	return &commWalk{map[unsafe.Pointer]bool{}, map[unsafe.Pointer]string{}, map[unsafe.Pointer]bool{}}
}

// walk visits v through the engine and library types and their free lists,
// collecting every commRecords record it meets, and hands each one's slabs to
// slab. The whole backing array of a slice is visited: a stale entry past the
// length pins its record as surely as a live one.
func (c *commWalk) walk(v reflect.Value, slab func(record string, p unsafe.Pointer)) {
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			c.walk(v.Elem(), slab)
		}
	case reflect.Pointer:
		if v.IsNil() || c.seen[v.UnsafePointer()] || !walked(v.Type().Elem()) {
			return
		}
		c.seen[v.UnsafePointer()] = true
		e := v.Elem()
		if fields, ok := commRecords[e.Type().String()]; ok {
			c.records[v.UnsafePointer()] = e.Type().String()
			for _, f := range fields {
				// A slab under 16 bytes may share a tiny allocation with
				// unrelated live data, so it could never read as freed.
				if sl := e.FieldByName(f); sl.Cap() >= 16 {
					slab(e.Type().String(), sl.UnsafePointer())
				}
			}
		}
		c.walk(e, slab)
	case reflect.Struct:
		if !walked(v.Type()) {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if _, ok := commRecords[f.Type().String()]; ok && f.CanAddr() {
				c.embedded[f.Addr().UnsafePointer()] = true
			}
			c.walk(f, slab)
		}
	case reflect.Slice:
		if walked(v.Type().Elem()) {
			v = v.Slice(0, v.Cap())
			for i := 0; i < v.Len(); i++ {
				c.walk(v.Index(i), slab)
			}
		}
	}
}

// watchComm walks every rank's engine and takes a weak pointer to each
// record met and to its slabs. A record embedded in another object — a
// persistent receive in its tag's slots, an endpoint's static completion
// packet — is that object's for good, so only its slabs are watched.
func (w *recordWatch) watchComm() {
	c := newCommWalk()
	for _, n := range w.rt.nodes {
		c.walk(reflect.ValueOf(n.ce), func(record string, p unsafe.Pointer) {
			w.slabs[record][weak.Make((*byte)(p))] = true
		})
	}
	for p, name := range c.records {
		if !c.embedded[p] {
			w.comm[name][weak.Make((*byte)(p))] = true
		}
	}
}

// walked reports whether watchComm descends into values of type t.
func walked(t reflect.Type) bool {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.Interface:
		return true
	case reflect.Struct:
		return commPackages[t.PkgPath()] || t.PkgPath() == "amtlci/internal/sim" && strings.HasPrefix(t.Name(), "FreeList[")
	}
	return false
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
	w.watchComm()
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
	w := &recordWatch{GraphPool: watchedGraph(), stack: s, flows: map[weak.Pointer[flowData]]bool{},
		ops: map[weak.Pointer[commOp]]bool{}, cells: map[weak.Pointer[cell[flowKey]]]bool{},
		waits: map[weak.Pointer[cell[TaskID]]]bool{},
		comm:  map[string]map[weak.Pointer[byte]]bool{}, slabs: map[string]map[weak.Pointer[byte]]bool{}}
	for name := range commRecords {
		w.comm[name], w.slabs[name] = map[weak.Pointer[byte]]bool{}, map[weak.Pointer[byte]]bool{}
	}
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
// records and communication-thread steps, carved from shard slabs, the
// lazy-fetch and waiter cells, and the engines' and libraries' message-path
// records with their payload slabs — die with the run: once Run has
// returned, nothing the finished Runtime or its retained stack keeps for
// WorkerBusy, Tracer and Metrics reaches them, so one collection frees them,
// and with them their chunks. A single stale reference anywhere in the stack
// — a callback an engine keeps past its use, a list the run forgot to drop, a
// queue that left a removed entry behind its length — would pin a record or a
// whole chunk, and fails here. Both backends, with stealing, and through a
// crash with recovery, where the crashed rank's engine and library are
// watched like the others: what froze there at the crash dies with the run.
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
					for _, name := range backendRecords[b] {
						if len(w.comm[name]) == 0 || len(commRecords[name]) > 0 && len(w.slabs[name]) == 0 {
							t.Fatalf("%d %s records and %d of their slabs seen; want some of each",
								len(w.comm[name]), name, len(w.slabs[name]))
						}
					}
					runtime.GC()
					if f, o, c, wc := live(w.flows), live(w.ops), live(w.cells), live(w.waits); f+o+c+wc > 0 {
						t.Fatalf("run-scoped records outlive the run: %d of %d flows, %d of %d steps, %d of %d lazy cells, %d of %d waiter cells",
							f, len(w.flows), o, len(w.ops), c, len(w.cells), wc, len(w.waits))
					}
					for _, name := range backendRecords[b] {
						if r, sl := live(w.comm[name]), live(w.slabs[name]); r+sl > 0 {
							t.Errorf("%s records outlive the run: %d of %d, and %d of %d slabs",
								name, r, len(w.comm[name]), sl, len(w.slabs[name]))
						}
					}
					runtime.KeepAlive(rt)
					runtime.KeepAlive(w.stack)
				})
			}
		})
	}
}
