package parsec_test

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"amtlci/internal/core/stack"
	"amtlci/internal/parsec"
	recov "amtlci/internal/recover"
	"amtlci/internal/sim"
)

// build assembles a runtime over a fresh stack.
func build(t *testing.T, b stack.Backend, ranks, workers int, tp parsec.Taskpool, mod func(*parsec.Config)) (*stack.Stack, *parsec.Runtime) {
	t.Helper()
	o := stack.DefaultOptions(b, ranks)
	o.Fabric.Jitter = 0
	s := stack.Build(o)
	cfg := parsec.DefaultConfig(workers)
	cfg.Jitter = 0
	if mod != nil {
		mod(&cfg)
	}
	return s, parsec.New(s.Dom, s.Engines, tp, cfg)
}

// count reads rank r's parsec/<name> counter from rt's registry.
func count(rt *parsec.Runtime, name string, r int) int64 {
	return int64(rt.Metrics().Value("parsec", name, r))
}

func forBackends(t *testing.T, f func(t *testing.T, b stack.Backend)) {
	for _, b := range stack.Backends {
		b := b
		t.Run(b.String(), func(t *testing.T) { f(t, b) })
	}
}

func TestSingleLocalChain(t *testing.T) {
	forBackends(t, func(t *testing.T, b stack.Backend) {
		g := parsec.NewGraphPool("chain", 1, false)
		a := g.AddTask(0, 0, 10*sim.Microsecond, 0, 128)
		bb := g.AddTask(1, 0, 10*sim.Microsecond, 0, 128)
		c := g.AddTask(2, 0, 10*sim.Microsecond, 0)
		g.Link(a, 0, bb)
		g.Link(bb, 0, c)
		var order []parsec.TaskID
		g.ExecuteFn = func(tk parsec.TaskID, _, _ []parsec.DataRef) { order = append(order, tk) }
		_, rt := build(t, b, 1, 2, g, nil)
		d, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(order) != 3 || order[0] != a || order[1] != bb || order[2] != c {
			t.Fatalf("order = %v", order)
		}
		if d < 30*sim.Microsecond {
			t.Fatalf("makespan %v below serial compute time", d)
		}
	})
}

func TestRemoteDependencyMovesRealBytes(t *testing.T) {
	forBackends(t, func(t *testing.T, b stack.Backend) {
		g := parsec.NewGraphPool("remote", 2, true)
		const size = 96 << 10 // rendezvous-sized
		prod := g.AddTask(0, 0, sim.Microsecond, 0, size)
		cons := g.AddTask(1, 1, sim.Microsecond, 0)
		g.Link(prod, 0, cons)
		var got byte
		g.ExecuteFn = func(tk parsec.TaskID, in, out []parsec.DataRef) {
			switch tk {
			case prod:
				for i := range out[0].Buf.Bytes {
					out[0].Buf.Bytes[i] = 0x5C
				}
			case cons:
				got = in[0].Buf.Bytes[size-1]
			}
		}
		_, rt := build(t, b, 2, 2, g, nil)
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		if got != 0x5C {
			t.Fatalf("consumer saw byte %#x, want 0x5C", got)
		}
		if count(rt, "bytes_fetched", 1) != size {
			t.Fatalf("BytesFetched = %d", count(rt, "bytes_fetched", 1))
		}
		if rt.Tracer().EndToEnd().N() != 1 {
			t.Fatalf("tracer samples = %d, want 1", rt.Tracer().EndToEnd().N())
		}
	})
}

func TestSmallRemotePayloadUsesEagerPath(t *testing.T) {
	// Payloads at or below the eager thresholds must still arrive intact.
	forBackends(t, func(t *testing.T, b stack.Backend) {
		g := parsec.NewGraphPool("eager", 2, true)
		prod := g.AddTask(0, 0, sim.Microsecond, 0, 64)
		cons := g.AddTask(1, 1, sim.Microsecond, 0)
		g.Link(prod, 0, cons)
		ok := false
		g.ExecuteFn = func(tk parsec.TaskID, in, out []parsec.DataRef) {
			if tk == prod {
				out[0].Buf.Bytes[63] = 0x77
			} else {
				ok = in[0].Buf.Bytes[63] == 0x77
			}
		}
		_, rt := build(t, b, 2, 1, g, nil)
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("eager payload corrupted or missing")
		}
	})
}

func TestDiamondMixedLocalRemote(t *testing.T) {
	forBackends(t, func(t *testing.T, b stack.Backend) {
		// A on rank0 feeds B (rank0, local) and C (rank1, remote); D on
		// rank1 needs B and C.
		g := parsec.NewGraphPool("diamond", 2, false)
		a := g.AddTask(0, 0, sim.Microsecond, 0, 4096)
		bb := g.AddTask(1, 0, sim.Microsecond, 0, 4096)
		c := g.AddTask(2, 1, sim.Microsecond, 0, 4096)
		d := g.AddTask(3, 1, sim.Microsecond, 0)
		g.Link(a, 0, bb)
		g.Link(a, 0, c)
		g.Link(bb, 0, d)
		g.Link(c, 0, d)
		ran := map[int64]bool{}
		g.ExecuteFn = func(tk parsec.TaskID, _, _ []parsec.DataRef) { ran[tk.Index] = true }
		_, rt := build(t, b, 2, 2, g, nil)
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		if len(ran) != 4 {
			t.Fatalf("ran %d tasks, want 4", len(ran))
		}
	})
}

func TestBroadcastUsesMulticastTree(t *testing.T) {
	forBackends(t, func(t *testing.T, b stack.Backend) {
		const ranks = 9
		g := parsec.NewGraphPool("bcast", ranks, false)
		prod := g.AddTask(0, 0, sim.Microsecond, 0, 32<<10)
		for r := 1; r < ranks; r++ {
			c := g.AddTask(int64(r), r, sim.Microsecond, 0)
			g.Link(prod, 0, c)
		}
		_, rt := build(t, b, ranks, 1, g, nil)
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		// Every remote rank fetched the flow once.
		if n := rt.Tracer().EndToEnd().N(); n != ranks-1 {
			t.Fatalf("e2e samples = %d, want %d", n, ranks-1)
		}
		// With a binomial tree, the root serves ceil(log2(9))=4 children,
		// not 8: its GET DATA count stays below the consumer count.
		rootGets := count(rt, "gets_sent", 0)
		if rootGets != 0 {
			t.Fatalf("root sent %d GET DATA, want 0", rootGets)
		}
		var forwarded int64
		for r := 1; r < ranks; r++ {
			forwarded += count(rt, "activates_sent", r)
		}
		if forwarded == 0 {
			t.Fatal("no rank forwarded activations; tree multicast not exercised")
		}
	})
}

// TestMulticastDeliversToAllRanksExactlyOnce drives the binomial multicast
// tree across odd, even, power-of-two and non-power-of-two rank counts from
// 1 to 64 on both backends: one producer on rank 0 feeds a consumer on every
// other rank, and each consumer must run exactly once with intact data.
func TestMulticastDeliversToAllRanksExactlyOnce(t *testing.T) {
	counts := []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 33, 63, 64}
	forBackends(t, func(t *testing.T, b stack.Backend) {
		for _, ranks := range counts {
			const size = 1 << 10
			g := parsec.NewGraphPool("mcast", ranks, true)
			prod := g.AddTask(0, 0, sim.Microsecond, 0, size)
			for r := 1; r < ranks; r++ {
				c := g.AddTask(int64(r), r, sim.Microsecond, 0)
				g.Link(prod, 0, c)
			}
			runs := make(map[int64]int)
			intact := make(map[int64]bool)
			g.ExecuteFn = func(tk parsec.TaskID, in, out []parsec.DataRef) {
				runs[tk.Index]++
				if tk == prod {
					for i := range out[0].Buf.Bytes {
						out[0].Buf.Bytes[i] = byte(i)
					}
					return
				}
				ok := len(in[0].Buf.Bytes) == size
				if ok {
					ok = in[0].Buf.Bytes[size-1] == byte((size-1)%256)
				}
				intact[tk.Index] = ok
			}
			_, rt := build(t, b, ranks, 1, g, nil)
			if _, err := rt.Run(); err != nil {
				t.Fatalf("n=%d: %v", ranks, err)
			}
			for r := 0; r < ranks; r++ {
				if runs[int64(r)] != 1 {
					t.Fatalf("n=%d: task %d ran %d times, want exactly once", ranks, r, runs[int64(r)])
				}
				if r > 0 && !intact[int64(r)] {
					t.Fatalf("n=%d: rank %d received corrupted data", ranks, r)
				}
			}
			if n := rt.Tracer().EndToEnd().N(); int(n) != ranks-1 {
				t.Fatalf("n=%d: e2e samples = %d, want %d (one delivery per consumer)", ranks, n, ranks-1)
			}
		}
	})
}

func TestPriorityOrderOnSingleWorker(t *testing.T) {
	g := parsec.NewGraphPool("prio", 1, false)
	root := g.AddTask(0, 0, sim.Microsecond, 0, 8)
	low := g.AddTask(1, 0, sim.Microsecond, 1)
	high := g.AddTask(2, 0, sim.Microsecond, 99)
	g.Link(root, 0, low)
	g.Link(root, 0, high)
	var order []int64
	g.ExecuteFn = func(tk parsec.TaskID, _, _ []parsec.DataRef) { order = append(order, tk.Index) }
	_, rt := build(t, stack.LCI, 1, 1, g, nil)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if order[1] != 2 || order[2] != 1 {
		t.Fatalf("priority order violated: %v", order)
	}
}

func TestFetchCapDefersLowPriorityFetches(t *testing.T) {
	forBackends(t, func(t *testing.T, b stack.Backend) {
		g := parsec.NewGraphPool("defer", 2, false)
		const n = 12
		for i := int64(0); i < n; i++ {
			p := g.AddTask(i, 0, sim.Microsecond, 0, 256<<10)
			c := g.AddTask(100+i, 1, sim.Microsecond, i)
			g.Link(p, 0, c)
		}
		_, rt := build(t, b, 2, 4, g, func(c *parsec.Config) { c.FetchCap = 2 })
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		if count(rt, "fetch_deferred", 1) == 0 {
			t.Fatal("no fetches deferred despite FetchCap=2")
		}
		if count(rt, "tasks_run", 1) != n {
			t.Fatalf("rank1 ran %d tasks, want %d", count(rt, "tasks_run", 1), n)
		}
	})
}

func TestActivateAggregationFunneledVsMT(t *testing.T) {
	mkpool := func() *parsec.GraphPool {
		g := parsec.NewGraphPool("agg", 2, false)
		// Many producers on rank 0 all feeding consumers on rank 1: their
		// ACTIVATEs aggregate when funneled through the comm thread.
		for i := int64(0); i < 64; i++ {
			p := g.AddTask(i, 0, 100*sim.Nanosecond, 0, 1024)
			c := g.AddTask(1000+i, 1, 100*sim.Nanosecond, 0)
			g.Link(p, 0, c)
		}
		return g
	}
	_, funneled := build(t, stack.LCI, 2, 8, mkpool(), nil)
	if _, err := funneled.Run(); err != nil {
		t.Fatal(err)
	}
	if msgs, acts := count(funneled, "activates_sent", 0), count(funneled, "activations", 0); msgs >= acts {
		t.Fatalf("funneled mode did not aggregate: %d messages for %d activations", msgs, acts)
	}
	_, mt := build(t, stack.LCI, 2, 8, mkpool(), func(c *parsec.Config) { c.MTActivate = true })
	if _, err := mt.Run(); err != nil {
		t.Fatal(err)
	}
	if msgs, acts := count(mt, "activates_sent", 0), count(mt, "activations", 0); msgs != acts {
		t.Fatalf("MT mode should not aggregate: %d messages for %d activations", msgs, acts)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// A consumer whose producer lives on a rank that never runs it: we
	// simulate a broken pool by linking to a task that never becomes ready.
	g := parsec.NewGraphPool("dead", 1, false)
	a := g.AddTask(0, 0, sim.Microsecond, 0, 8)
	bb := g.AddTask(1, 0, sim.Microsecond, 0, 8)
	c := g.AddTask(2, 0, sim.Microsecond, 0, 8)
	g.Link(a, 0, bb)
	g.Link(bb, 0, c) // fine so far
	g.Link(c, 0, bb) // cycle: b needs c, c needs b
	_, rt := build(t, stack.LCI, 1, 2, g, nil)
	_, err := rt.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestDeterministicMakespan(t *testing.T) {
	run := func(b stack.Backend) sim.Duration {
		g := parsec.NewGraphPool("det", 4, false)
		idx := int64(0)
		var prev []parsec.TaskID
		for layer := 0; layer < 6; layer++ {
			var cur []parsec.TaskID
			for i := 0; i < 8; i++ {
				tk := g.AddTask(idx, (layer+i)%4, 5*sim.Microsecond, int64(i), 64<<10)
				idx++
				for _, p := range prev {
					g.Link(p, 0, tk)
				}
				cur = append(cur, tk)
			}
			prev = cur
		}
		_, rt := build(t, b, 4, 4, g, nil)
		d, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, b := range stack.Backends {
		if a, bd := run(b), run(b); a != bd {
			t.Fatalf("%v: nondeterministic makespan %v vs %v", b, a, bd)
		}
	}
}

func TestWorkerScalingReducesMakespan(t *testing.T) {
	mk := func(workers int) sim.Duration {
		g := parsec.NewGraphPool("scale", 1, false)
		for i := int64(0); i < 64; i++ {
			g.AddTask(i, 0, 100*sim.Microsecond, 0)
		}
		_, rt := build(t, stack.LCI, 1, workers, g, nil)
		d, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	one, eight := mk(1), mk(8)
	if eight >= one/4 {
		t.Fatalf("8 workers (%v) not meaningfully faster than 1 (%v)", eight, one)
	}
}

// TestEndToEndLatencySpansHop: every stamp reads the simulator's one clock,
// so a remote consumer's one sample is ordered as the sends were: the
// producer's ACTIVATE went out before the owner's put, and the end-to-end
// latency exceeds the hop latency, which is positive.
func TestEndToEndLatencySpansHop(t *testing.T) {
	g := parsec.NewGraphPool("onehop", 2, false)
	p := g.AddTask(0, 0, sim.Microsecond, 0, 128<<10)
	c := g.AddTask(1, 1, sim.Microsecond, 0)
	g.Link(p, 0, c)
	_, rt := build(t, stack.LCI, 2, 1, g, nil)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	e2e, hop := rt.Tracer().EndToEnd(), rt.Tracer().Hop()
	if e2e.N() != 1 || hop.N() != 1 {
		t.Fatalf("%d end-to-end and %d hop samples, want one each", e2e.N(), hop.N())
	}
	if !(0 < hop.Mean() && hop.Mean() < e2e.Mean() && e2e.Mean() < 1000) {
		t.Fatalf("end-to-end %vµs, hop %vµs: want 0 < hop < end-to-end < 1ms", e2e.Mean(), hop.Mean())
	}
}

func TestControlFlowCarriesNoData(t *testing.T) {
	forBackends(t, func(t *testing.T, b stack.Backend) {
		// A SYNC-style task: remote consumers depend on a zero-size flow.
		g := parsec.NewGraphPool("ctl", 2, false)
		sync := g.AddTask(0, 0, sim.Microsecond, 0, 0) // zero-size flow
		c1 := g.AddTask(1, 1, sim.Microsecond, 0)
		c2 := g.AddTask(2, 1, sim.Microsecond, 0)
		g.Link(sync, 0, c1)
		g.Link(sync, 0, c2)
		_, rt := build(t, b, 2, 2, g, nil)
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		// No GET DATA, no bytes fetched: pure control.
		if g, f := count(rt, "gets_sent", 1), count(rt, "bytes_fetched", 1); g != 0 || f != 0 {
			t.Fatalf("control dep moved data: %d GET DATA, %d bytes", g, f)
		}
		if count(rt, "activates_sent", 0) == 0 {
			t.Fatal("no activation sent for control flow")
		}
	})
}

func TestControlFlowThroughMulticastTree(t *testing.T) {
	const ranks = 8
	g := parsec.NewGraphPool("ctl-tree", ranks, false)
	sync := g.AddTask(0, 0, sim.Microsecond, 0, 0)
	for r := 1; r < ranks; r++ {
		c := g.AddTask(int64(r), r, sim.Microsecond, 0)
		g.Link(sync, 0, c)
	}
	_, rt := build(t, stack.LCI, ranks, 1, g, nil)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < ranks; r++ {
		if count(rt, "gets_sent", r) != 0 {
			t.Fatalf("rank %d fetched data for a control flow", r)
		}
	}
}

func TestRandomDAGsCompleteOnBothBackends(t *testing.T) {
	// Property: any randomly generated layered DAG with mixed control and
	// data flows completes without deadlock on both backends, every task
	// runs exactly once, and the two backends fetch identical byte counts
	// (the protocol moves the same data, only timing differs).
	buildRandom := func(seed uint64, ranks int) *parsec.GraphPool {
		rng := sim.NewRNG(seed)
		g := parsec.NewGraphPool("random", ranks, false)
		var prev []parsec.TaskID
		idx := int64(0)
		layers := 2 + rng.Intn(4)
		for l := 0; l < layers; l++ {
			width := 1 + rng.Intn(6)
			var cur []parsec.TaskID
			for i := 0; i < width; i++ {
				var size int64
				switch rng.Intn(3) {
				case 0:
					size = 0 // control flow
				case 1:
					size = int64(1 + rng.Intn(4<<10)) // eager
				default:
					size = int64(32<<10 + rng.Intn(256<<10)) // rendezvous
				}
				tk := g.AddTask(idx, rng.Intn(ranks),
					sim.Duration(rng.Intn(20))*sim.Microsecond, int64(rng.Intn(8)), size)
				idx++
				// Link to a random subset of the previous layer.
				for _, p := range prev {
					if rng.Intn(3) != 0 {
						g.Link(p, 0, tk)
					}
				}
				cur = append(cur, tk)
			}
			prev = cur
		}
		return g
	}

	f := func(seed uint16) bool {
		ranks := 2 + int(seed)%3
		var fetched [2]int64
		for i, b := range stack.Backends {
			g := buildRandom(uint64(seed)+7, ranks)
			_, rt := build(t, b, ranks, 2, g, nil)
			if _, err := rt.Run(); err != nil {
				t.Logf("seed %d backend %v: %v", seed, b, err)
				return false
			}
			var ran int64
			for r := 0; r < ranks; r++ {
				ran += count(rt, "tasks_run", r)
				fetched[i] += count(rt, "bytes_fetched", r)
			}
			var want int64
			for r := 0; r < ranks; r++ {
				want += g.LocalTasks(r)
			}
			if ran != want {
				t.Logf("seed %d backend %v: ran %d want %d", seed, b, ran, want)
				return false
			}
		}
		if fetched[0] != fetched[1] {
			t.Logf("seed %d: LCI fetched %d, MPI fetched %d", seed, fetched[0], fetched[1])
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

type countingObserver struct {
	parsec.NopObserver
	starts, ends, fetches, arrivals, activates int
}

func (o *countingObserver) TaskStart(int, int, parsec.TaskID, sim.Time) { o.starts++ }
func (o *countingObserver) TaskEnd(int, int, parsec.TaskID, sim.Time)   { o.ends++ }
func (o *countingObserver) FetchStart(int, parsec.TaskID, int32, int64, sim.Time) {
	o.fetches++
}
func (o *countingObserver) DataArrived(int, parsec.TaskID, int32, int64, sim.Time) {
	o.arrivals++
}
func (o *countingObserver) ActivateSent(int, int, int, sim.Time) { o.activates++ }

func TestObserverSeesEveryEvent(t *testing.T) {
	g := parsec.NewGraphPool("obs", 2, false)
	p := g.AddTask(0, 0, sim.Microsecond, 0, 64<<10)
	c := g.AddTask(1, 1, sim.Microsecond, 0)
	g.Link(p, 0, c)
	_, rt := build(t, stack.LCI, 2, 1, g, nil)
	obs := &countingObserver{}
	rt.SetObserver(obs)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if obs.starts != 2 || obs.ends != 2 {
		t.Fatalf("task events: %d starts, %d ends", obs.starts, obs.ends)
	}
	if obs.fetches != 1 || obs.arrivals != 1 {
		t.Fatalf("comm events: %d fetches, %d arrivals", obs.fetches, obs.arrivals)
	}
	if obs.activates == 0 {
		t.Fatal("no ACTIVATE events observed")
	}
}

// seqEvent is one observed callback, in arrival order.
type seqEvent struct {
	kind    string // "start", "end", "fetch", "arrive", "activate"
	rank    int
	worker  int
	task    parsec.TaskID
	flow    int32
	entries int
	at      sim.Time
}

type sequenceObserver struct {
	parsec.NopObserver
	events []seqEvent
}

func (o *sequenceObserver) TaskStart(rank, worker int, t parsec.TaskID, at sim.Time) {
	o.events = append(o.events, seqEvent{kind: "start", rank: rank, worker: worker, task: t, at: at})
}
func (o *sequenceObserver) TaskEnd(rank, worker int, t parsec.TaskID, at sim.Time) {
	o.events = append(o.events, seqEvent{kind: "end", rank: rank, worker: worker, task: t, at: at})
}
func (o *sequenceObserver) FetchStart(rank int, p parsec.TaskID, flow int32, _ int64, at sim.Time) {
	o.events = append(o.events, seqEvent{kind: "fetch", rank: rank, task: p, flow: flow, at: at})
}
func (o *sequenceObserver) DataArrived(rank int, p parsec.TaskID, flow int32, _ int64, at sim.Time) {
	o.events = append(o.events, seqEvent{kind: "arrive", rank: rank, task: p, flow: flow, at: at})
}
func (o *sequenceObserver) ActivateSent(rank, dest, entries int, at sim.Time) {
	o.events = append(o.events, seqEvent{kind: "activate", rank: rank, entries: entries, at: at})
}

// TestObserverSequence pins down the callback contract on a two-rank graph:
// every TaskStart pairs with exactly one later TaskEnd on the same
// (rank, worker), every FetchStart precedes the DataArrived of the same
// flow on the same rank, and the ActivateSent entry counts add up to the
// runtime's own Activations counter — identically on both backends.
func TestObserverSequence(t *testing.T) {
	forBackends(t, func(t *testing.T, b stack.Backend) {
		// Two producers on rank 0 feed one consumer each on rank 1, with
		// rendezvous-sized flows so both GET DATA paths are exercised.
		g := parsec.NewGraphPool("seq", 2, false)
		p0 := g.AddTask(0, 0, 2*sim.Microsecond, 0, 64<<10)
		p1 := g.AddTask(1, 0, 2*sim.Microsecond, 0, 64<<10)
		c0 := g.AddTask(2, 1, sim.Microsecond, 0)
		c1 := g.AddTask(3, 1, sim.Microsecond, 0)
		g.Link(p0, 0, c0)
		g.Link(p1, 0, c1)
		_, rt := build(t, b, 2, 2, g, nil)
		obs := &sequenceObserver{}
		rt.SetObserver(obs)
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}

		// Virtual time never runs backwards across callbacks.
		for i := 1; i < len(obs.events); i++ {
			if obs.events[i].at < obs.events[i-1].at {
				t.Fatalf("event %d at %v precedes event %d at %v",
					i, obs.events[i].at, i-1, obs.events[i-1].at)
			}
		}

		// TaskStart/TaskEnd pair per (rank, worker, task), start first.
		type slot struct {
			rank, worker int
			task         parsec.TaskID
		}
		open := map[slot]sim.Time{}
		pairs := 0
		for _, e := range obs.events {
			k := slot{e.rank, e.worker, e.task}
			switch e.kind {
			case "start":
				if _, dup := open[k]; dup {
					t.Fatalf("second TaskStart for %v before its TaskEnd", k)
				}
				open[k] = e.at
			case "end":
				start, ok := open[k]
				if !ok {
					t.Fatalf("TaskEnd for %v without TaskStart", k)
				}
				if e.at < start {
					t.Fatalf("TaskEnd for %v at %v before its start %v", k, e.at, start)
				}
				delete(open, k)
				pairs++
			}
		}
		if len(open) != 0 {
			t.Fatalf("%d TaskStart(s) never ended: %v", len(open), open)
		}
		if pairs != 4 {
			t.Fatalf("task pairs = %d, want 4", pairs)
		}

		// FetchStart precedes DataArrived for the same (rank, producer, flow).
		type fkey struct {
			rank int
			task parsec.TaskID
			flow int32
		}
		fetched := map[fkey]sim.Time{}
		arrivals := 0
		for _, e := range obs.events {
			k := fkey{e.rank, e.task, e.flow}
			switch e.kind {
			case "fetch":
				fetched[k] = e.at
			case "arrive":
				sent, ok := fetched[k]
				if !ok {
					t.Fatalf("DataArrived for %v without FetchStart", k)
				}
				if e.at < sent {
					t.Fatalf("DataArrived for %v at %v before its fetch %v", k, e.at, sent)
				}
				arrivals++
			}
		}
		if len(fetched) != 2 || arrivals != 2 {
			t.Fatalf("fetches = %d, arrivals = %d, want 2 and 2", len(fetched), arrivals)
		}

		// ActivateSent messages and entry totals match the runtime counters.
		msgs, entries := 0, 0
		for _, e := range obs.events {
			if e.kind == "activate" {
				if e.rank != 0 {
					t.Fatalf("ACTIVATE observed from rank %d, want 0", e.rank)
				}
				msgs++
				entries += e.entries
			}
		}
		var statMsgs, statEntries int64
		for r := 0; r < 2; r++ {
			statMsgs += count(rt, "activates_sent", r)
			statEntries += count(rt, "activations", r)
		}
		if int64(msgs) != statMsgs || int64(entries) != statEntries {
			t.Fatalf("observer saw %d msgs/%d entries, counters say %d/%d",
				msgs, entries, statMsgs, statEntries)
		}
		if entries != 2 {
			t.Fatalf("activation entries = %d, want 2 (one per remote flow)", entries)
		}
	})
}

// TestSetObserverRequiresSerialDomain: observer callbacks run synchronously
// on the simulation goroutine, so installing one on a sharded domain panics
// with a message naming the requirement instead of racing across shards.
func TestSetObserverRequiresSerialDomain(t *testing.T) {
	o := stack.DefaultOptions(stack.LCI, 2)
	o.Shards = 2
	s := stack.Build(o)
	rt := parsec.New(s.Dom, s.Engines, parsec.NewGraphPool("obs", 2, false), parsec.DefaultConfig(1))
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "requires a single-shard domain") {
			t.Fatalf("SetObserver on a sharded domain: panic %q does not name the single-shard requirement", msg)
		}
	}()
	rt.SetObserver(parsec.NopObserver{})
}

// TestRecoveryRejectsMultiOutputTask: crash recovery checkpoints, enumerates
// and restores one output flow per task, so with recovery armed a task that
// returns two outputs fails the run with an error naming it.
func TestRecoveryRejectsMultiOutputTask(t *testing.T) {
	forBackends(t, func(t *testing.T, b stack.Backend) {
		g := parsec.NewGraphPool("two-out", 2, false)
		p := g.AddTask(0, 0, sim.Microsecond, 0, 64, 64)
		g.Link(p, 0, g.AddTask(1, 1, sim.Microsecond, 0))
		g.Link(p, 1, g.AddTask(2, 1, sim.Microsecond, 0))
		s, rt := build(t, b, 2, 1, g, nil)
		mgrs := make([]*recov.Manager, len(s.Engines))
		for i, ce := range s.Engines {
			mgrs[i] = recov.NewManager(ce, s.Metrics)
		}
		rt.EnableRecovery(parsec.RecoveryConfig{Managers: mgrs})
		_, err := rt.Run()
		if err == nil || !strings.Contains(err.Error(), "task "+p.String()+" returned 2 outputs") {
			t.Fatalf("two-output task under recovery: err = %v, want one naming %v", err, p)
		}
	})
}
