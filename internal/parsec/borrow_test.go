package parsec_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/fabric"
	"amtlci/internal/metrics"
	"amtlci/internal/parsec"
	recov "amtlci/internal/recover"
	"amtlci/internal/rel"
	"amtlci/internal/sim"
)

// lendingPool holds the Taskpool contract for Execute's result to the letter
// and no further: it returns one scratch slice and fills it with garbage at
// the start of its next Execute. A runtime that kept a result past that
// point, or read it again, would run on the garbage.
type lendingPool struct {
	*parsec.GraphPool
	out []parsec.DataRef
}

var garbage = parsec.RealData([]byte("not a payload"))

func (p *lendingPool) Execute(t parsec.TaskID, in []parsec.DataRef) []parsec.DataRef {
	for i := range p.out {
		p.out[i] = garbage
	}
	p.out = append(p.out[:0], p.GraphPool.Execute(t, in)...)
	return p.out
}

// borrowGraph is a layered DAG of real-byte tasks spread over ranks ranks,
// one output flow each (so crash recovery can checkpoint every task), with
// small payloads and, for a quarter of the tasks, big ones. Each task writes
// a hash of its id and its inputs into its output and folds it into *digest
// in execution order, so any payload the runtime mixed up shows in the
// digest.
func borrowGraph(ranks int, big int64, digest *uint64) *parsec.GraphPool {
	rng := sim.NewRNG(42)
	g := parsec.NewGraphPool("borrow", ranks, true)
	var prev []parsec.TaskID
	idx := int64(0)
	for l := 0; l < 8; l++ {
		var cur []parsec.TaskID
		for i := 0; i < 6; i++ {
			size := int64(64 + rng.Intn(2<<10))
			if rng.Intn(4) == 0 {
				size = big
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
	g.ExecuteFn = func(tk parsec.TaskID, in, out []parsec.DataRef) {
		h := fnv.New64a()
		binary.Write(h, binary.LittleEndian, tk.Index)
		for _, r := range in {
			h.Write(r.Buf.Bytes)
		}
		sum := h.Sum64()
		for i := range out[0].Buf.Bytes {
			out[0].Buf.Bytes[i] = byte(sum >> (8 * (i % 8)))
		}
		*digest = *digest*1099511628211 ^ sum
	}
	return g
}

// borrowRun runs borrowGraph, through lendingPool when lend is set, and
// returns the whole stack's registry, the execution digest and the makespan.
// crashAt > 0 crashes rank 1 then, with recovery armed. Big payloads take
// the rendezvous path of both backends, except under recovery, whose
// checkpoints travel as eager active messages.
func borrowRun(t *testing.T, b stack.Backend, steal, lend bool, crashAt sim.Duration) (*metrics.Registry, uint64, sim.Duration) {
	t.Helper()
	const ranks = 4
	var digest uint64
	big := int64(10 << 10)
	if crashAt > 0 {
		big = 6 << 10
	}
	var tp parsec.Taskpool = borrowGraph(ranks, big, &digest)
	if lend {
		tp = &lendingPool{GraphPool: tp.(*parsec.GraphPool)}
	}
	o := stack.DefaultOptions(b, ranks)
	o.Fabric.Jitter = 0
	if crashAt > 0 {
		o.Faults = &fabric.FaultConfig{Crashes: []fabric.NodeCrash{{Rank: 1, At: sim.Time(crashAt)}}}
		rc := rel.DefaultConfig()
		rc.EnableHeartbeats()
		o.Rel = &rc
	}
	s := stack.Build(o)
	cfg := parsec.DefaultConfig(2)
	cfg.Jitter = 0
	cfg.Steal = steal
	cfg.Metrics = s.Metrics
	rt := parsec.New(s.Dom, s.Engines, tp, cfg)
	if crashAt > 0 {
		mgrs := make([]*recov.Manager, ranks)
		for i, ce := range s.Engines {
			mgrs[i] = recov.NewManager(ce, s.Metrics)
		}
		rt.EnableRecovery(parsec.RecoveryConfig{Managers: mgrs, RestartDelay: 100 * sim.Microsecond})
		s.Fab.OnCrash(rt.KillRank)
		rt.OnTerminate(s.Rel.StopHeartbeats)
		s.Rel.WatchProgress(rt.Progress)
	}
	d, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	return s.Metrics, digest, d
}

// TestExecuteOutputsAreBorrowed checks the runtime's side of the Taskpool
// contract for Execute's result: it copies what it needs before the pool's
// next Execute and never looks at the slice again. A pool that scribbles
// over its previous result must produce the same run, counter for counter
// and payload for payload, as one that does not — on both backends, with
// and without stealing, and through a crash with recovery, whose checkpoints
// read the result too.
func TestExecuteOutputsAreBorrowed(t *testing.T) {
	forBackends(t, func(t *testing.T, b stack.Backend) {
		_, _, makespan := borrowRun(t, b, false, false, 0)
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
				own, ownDigest, _ := borrowRun(t, b, c.steal, false, c.crashAt)
				lent, lentDigest, _ := borrowRun(t, b, c.steal, true, c.crashAt)
				if d := metrics.Diff(own, lent); d != "" {
					t.Fatalf("lent Execute results changed the run: %s", d)
				}
				if ownDigest != lentDigest {
					t.Fatalf("lent Execute results changed the payloads: digest %#x vs %#x", ownDigest, lentDigest)
				}
				if c.crashAt > 0 && own.Total("parsec", "restarts") != 1 {
					t.Fatalf("crash at %v: %d restarts, want 1", c.crashAt, own.Total("parsec", "restarts"))
				}
			})
		}
	})
}
