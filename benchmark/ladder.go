package main

import (
	"fmt"
	"runtime"
	"time"

	"amtlci/internal/buf"
	"amtlci/internal/core"
	"amtlci/internal/core/stack"
	"amtlci/internal/fabric"
	"amtlci/internal/hicma"
	"amtlci/internal/lci"
	"amtlci/internal/mpi"
	"amtlci/internal/parsec"
	"amtlci/internal/rel"
	"amtlci/internal/sim"
	"amtlci/internal/stats"
)

// The layer ladder drives each layer alone through its public API, on a
// fixed operation count, with only the layers beneath it. A rung reports
// host ns and heap allocations per operation (median of three samples); a
// rung minus the rung below it estimates that layer's self cost.

// rung prepares one ladder measurement: everything it builds is set-up, the
// returned run is the measured part and must perform exactly ops operations.
type rung func(scale int) (ops int, run func() error)

const ladderSamples = 3

// measureRung samples r and stores the medians under nsKey and allocsKey
// (allocsKey may be empty). scale divides the operation count (tests).
func measureRung(m map[string]float64, nsKey, allocsKey string, scale int, r rung) error {
	var ns, allocs []float64
	for i := 0; i < ladderSamples; i++ {
		ops, run := r(scale)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		err := run()
		wall := time.Since(t0)
		runtime.ReadMemStats(&after)
		if err != nil {
			return fmt.Errorf("%s: %w", nsKey, err)
		}
		ns = append(ns, float64(wall)/float64(ops))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(ops))
	}
	m[nsKey] = stats.Percentile(ns, 50)
	if allocsKey != "" {
		m[allocsKey] = stats.Percentile(allocs, 50)
	}
	return nil
}

// ladder measures every rung. smoke divides the operation counts by 100
// (tests).
func ladder(smoke bool) (map[string]float64, error) {
	m := make(map[string]float64)
	scale := 1
	if smoke {
		scale = 100
	}
	rungs := []struct {
		ns, allocs string
		r          rung
	}{
		{"sim.ns_per_event", "sim.allocs_per_event", simEventRung},
		{"sim.proc_ns_per_op", "", simProcRung},
		{"fabric.ns_per_msg_ctl", "fabric.allocs_per_msg_ctl", fabricRung(1 << 10)},
		{"fabric.ns_per_msg_bulk", "fabric.allocs_per_msg_bulk", fabricRung(64 << 10)},
		{"rel.ns_per_msg", "rel.allocs_per_msg", relRung},
		{"mpi.ns_per_msg_eager", "mpi.allocs_per_msg_eager", mpiRung(8 << 10)},
		{"mpi.ns_per_msg_rdv", "mpi.allocs_per_msg_rdv", mpiRung(32 << 10)},
		{"lci.ns_per_msg_buffered", "lci.allocs_per_msg_buffered", lciBufferedRung},
		{"lci.ns_per_msg_direct", "lci.allocs_per_msg_direct", lciDirectRung},
		{"mpice.ns_per_am", "mpice.allocs_per_am", ceAMRung(stack.MPI)},
		{"mpice.ns_per_put", "mpice.allocs_per_put", cePutRung(stack.MPI)},
		{"lcice.ns_per_am", "lcice.allocs_per_am", ceAMRung(stack.LCI)},
		{"lcice.ns_per_put", "lcice.allocs_per_put", cePutRung(stack.LCI)},
		{"parsec.ns_per_task_local", "parsec.allocs_per_task_local", parsecRung(stack.LCI, 1)},
		{"parsec.ns_per_task_remote_lci", "parsec.allocs_per_task_remote_lci", parsecRung(stack.LCI, 2)},
		{"parsec.ns_per_task_remote_mpi", "parsec.allocs_per_task_remote_mpi", parsecRung(stack.MPI, 2)},
		{"hicma.ns_per_pool_call", "hicma.allocs_per_pool_call", hicmaPoolRung},
	}
	for _, r := range rungs {
		if err := measureRung(m, r.ns, r.allocs, scale, r.r); err != nil {
			return m, err
		}
	}
	return m, nil
}

// scaled returns n/scale rounded up to a multiple of batch.
func scaled(n, scale, batch int) int {
	n = max(n/scale, batch)
	return (n + batch - 1) / batch * batch
}

// lcg steps a cheap deterministic generator, so the event rung measures the
// queue and not the RNG.
func lcg(s uint64) uint64 { return s*6364136223846793005 + 1442695040888963407 }

// eventDelay maps a generator state to the delay mix a real run produces:
// mostly within a few dozen calendar buckets, one in 256 far enough to land
// in the engine's overflow tier (timeouts).
func eventDelay(s uint64) sim.Duration {
	d := sim.Duration(s>>40) + 1
	if s&0xFF == 0 {
		d += sim.Duration(1) << 33
	}
	return d
}

// simEventRung: a self-refilling population of 512 pending events on the
// serial engine.
func simEventRung(scale int) (int, func() error) {
	ops := scaled(1<<20, scale, 1)
	e := sim.NewEngine()
	fired := 0
	rng := uint64(0x9E3779B97F4A7C15)
	fires := make([]func(), 512)
	for i := range fires {
		fires[i] = func() {
			fired++
			if fired+len(fires) <= ops {
				rng = lcg(rng)
				e.After(eventDelay(rng), fires[i])
			}
		}
	}
	return ops, func() error {
		for _, f := range fires {
			rng = lcg(rng)
			e.After(eventDelay(rng), f)
		}
		e.Run()
		if fired != ops {
			return fmt.Errorf("fired %d of %d events", fired, ops)
		}
		return nil
	}
}

// simProcRung: a Proc kept ~32 items deep, the regime of the NIC engines.
func simProcRung(scale int) (int, func() error) {
	ops := scaled(1<<20, scale, 1)
	e := sim.NewEngine()
	p := sim.NewProc(e)
	done := 0
	var fn func()
	fn = func() {
		done++
		if done+32 <= ops {
			p.Submit(10, fn)
		}
	}
	return ops, func() error {
		for i := 0; i < 32; i++ {
			p.Submit(10, fn)
		}
		e.Run()
		if done != ops {
			return fmt.Errorf("dispatched %d of %d items", done, ops)
		}
		return nil
	}
}

func newFabric(eng *sim.Engine) (*fabric.Fabric, error) {
	return fabric.New(eng, 2, fabric.DefaultConfig())
}

// fabricRung: one virtual-payload message at a time from rank 0 to rank 1,
// on the control lane (size <= CtlBypass) or the bulk lane.
func fabricRung(size int64) rung {
	return func(scale int) (int, func() error) {
		ops := scaled(1<<18, scale, 1)
		eng := sim.NewEngine()
		f, err := newFabric(eng)
		if err != nil {
			return ops, func() error { return err }
		}
		n := 0
		f.SetHandler(0, func(*fabric.Message) {})
		f.SetHandler(1, func(m *fabric.Message) {
			n++
			if n < ops {
				m.Src, m.Dst = 0, 1
				f.Send(m)
			}
		})
		return ops, func() error {
			f.Send(&fabric.Message{Src: 0, Dst: 1, Size: size})
			eng.Run()
			if n != ops {
				return fmt.Errorf("delivered %d of %d messages", n, ops)
			}
			return nil
		}
	}
}

// relRung: the same stream through the reliability layer on a fault-free
// fabric (framing, checksum, delayed ACK, retransmit timer armed and
// cancelled).
func relRung(scale int) (int, func() error) {
	ops := scaled(1<<17, scale, 1)
	eng := sim.NewEngine()
	f, err := newFabric(eng)
	if err != nil {
		return ops, func() error { return err }
	}
	rl, err := rel.New(f, rel.DefaultConfig())
	if err != nil {
		return ops, func() error { return err }
	}
	n := 0
	send := func() { rl.Send(&fabric.Message{Src: 0, Dst: 1, Size: 1 << 10}) }
	rl.SetHandler(0, func(*fabric.Message) {})
	rl.SetHandler(1, func(*fabric.Message) {
		n++
		if n < ops {
			send()
		}
	})
	return ops, func() error {
		send()
		eng.Run()
		if n != ops {
			return fmt.Errorf("delivered %d of %d messages", n, ops)
		}
		return nil
	}
}

// libBatch is how many operations the library rungs post before letting the
// engine run to quiescence: well inside every library's resource limits.
const libBatch = 64

// mpiRung: Irecv/Isend pairs between two ranks whose progress is pumped as
// soon as work is staged (the pump of mpi_test.go). size selects the eager
// or the rendezvous protocol.
func mpiRung(size int64) rung {
	return func(scale int) (int, func() error) {
		ops := scaled(1<<16, scale, libBatch)
		eng := sim.NewEngine()
		f, err := newFabric(eng)
		if err != nil {
			return ops, func() error { return err }
		}
		w := mpi.NewWorld(eng, f, mpi.DefaultConfig())
		for i := 0; i < w.Size(); i++ {
			r := w.Rank(i)
			r.SetWake(func() { eng.After(10*sim.Nanosecond, r.Progress) })
		}
		b := buf.Virtual(size)
		return ops, func() error {
			for done := 0; done < ops; done += libBatch {
				var last *mpi.Request
				for i := 0; i < libBatch; i++ {
					last = w.Rank(1).Irecv(b, 0, 7)
					w.Rank(0).Isend(b, 1, 7)
				}
				eng.Run()
				if !last.Done() {
					return fmt.Errorf("receive %d incomplete", done+libBatch)
				}
			}
			return nil
		}
	}
}

// lciHarness is a two-endpoint LCI runtime with a prompt progress pump and a
// counting completion handler.
func lciHarness() (eng *sim.Engine, rt *lci.Runtime, got *int, count lci.Handler, err error) {
	eng = sim.NewEngine()
	f, err := newFabric(eng)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	rt = lci.NewRuntime(eng, f, lci.DefaultConfig())
	for i := 0; i < rt.Size(); i++ {
		ep := rt.Endpoint(i)
		ep.SetWake(func() { eng.After(10*sim.Nanosecond, ep.Progress) })
	}
	got = new(int)
	return eng, rt, got, func(lci.Request) { *got++ }, nil
}

// lciBufferedRung: 8 KiB Buffered sends, delivered with no posted receive.
func lciBufferedRung(scale int) (int, func() error) {
	ops := scaled(1<<16, scale, libBatch)
	eng, rt, got, count, err := lciHarness()
	if err != nil {
		return ops, func() error { return err }
	}
	rt.Endpoint(1).SetMsgComp(count)
	b := buf.Virtual(8 << 10)
	return ops, func() error {
		for done := 0; done < ops; done += libBatch {
			for i := 0; i < libBatch; i++ {
				if err := rt.Endpoint(0).Sendm(1, 7, b); err != nil {
					return err
				}
			}
			eng.Run()
		}
		if *got != ops {
			return fmt.Errorf("delivered %d of %d messages", *got, ops)
		}
		return nil
	}
}

// lciDirectRung: 32 KiB Direct (RTS/CTS rendezvous) transfers.
func lciDirectRung(scale int) (int, func() error) {
	ops := scaled(1<<16, scale, libBatch)
	eng, rt, got, count, err := lciHarness()
	if err != nil {
		return ops, func() error { return err }
	}
	b := buf.Virtual(32 << 10)
	return ops, func() error {
		for done := 0; done < ops; done += libBatch {
			for i := 0; i < libBatch; i++ {
				if err := rt.Endpoint(1).Recvd(0, 7, b, count, nil); err != nil {
					return err
				}
				if err := rt.Endpoint(0).Sendd(1, 7, b, nil, nil); err != nil {
					return err
				}
			}
			eng.Run()
		}
		if *got != ops {
			return fmt.Errorf("completed %d of %d receives", *got, ops)
		}
		return nil
	}
}

// ceAMRung: a 32-byte active message bounced between two ranks through
// core.Engine.
func ceAMRung(b stack.Backend) rung {
	return func(scale int) (int, func() error) {
		ops := scaled(1<<15, scale, 1)
		s := stack.New(b, 2)
		const tag core.Tag = 100
		payload := make([]byte, 32)
		n := 0
		for _, e := range s.Engines {
			e.TagReg(tag, func(e core.Engine, _ core.Tag, _ []byte, src int) {
				n++
				if n < ops {
					e.SendAM(tag, src, payload)
				}
			}, 64)
		}
		return ops, func() error {
			s.Engines[0].Submit(0, func() { s.Engines[0].SendAM(tag, 1, payload) })
			s.Eng.Run()
			if n != ops {
				return fmt.Errorf("%v: delivered %d of %d active messages", b, n, ops)
			}
			return nil
		}
	}
}

// cePutRung: a 32 KiB one-sided put bounced between two ranks; each remote
// completion callback issues the put back.
func cePutRung(b stack.Backend) rung {
	return func(scale int) (int, func() error) {
		ops := scaled(1<<14, scale, 1)
		s := stack.New(b, 2)
		const doneTag core.Tag = 101
		const size = 32 << 10
		var regs [2]core.MemHandle
		for r, e := range s.Engines {
			regs[r] = e.MemReg(buf.Virtual(size))
		}
		put := func(e core.Engine, to int) {
			e.Put(core.PutArgs{
				LReg: regs[e.Rank()], RReg: regs[to], Size: size, Remote: to,
				LocalCB: func() {}, RTag: doneTag,
			})
		}
		n := 0
		for _, e := range s.Engines {
			e.TagReg(doneTag, func(e core.Engine, _ core.Tag, _ []byte, src int) {
				n++
				if n < ops {
					put(e, src)
				}
			}, 64)
		}
		return ops, func() error {
			s.Engines[0].Submit(0, func() { put(s.Engines[0], 1) })
			s.Eng.Run()
			if n != ops {
				return fmt.Errorf("%v: completed %d of %d puts", b, n, ops)
			}
			return nil
		}
	}
}

// parsecRung: a GraphPool chain of tasks with 1 KiB flows. On one rank no
// message is sent; on two ranks consecutive tasks alternate, so every
// successor is activated, fetched and released across the wire.
func parsecRung(b stack.Backend, ranks int) rung {
	return func(scale int) (int, func() error) {
		ops := scaled(1<<15, scale, 1)
		if ranks > 1 {
			ops = scaled(1<<13, scale, 1)
		}
		g := parsec.NewGraphPool("chain", ranks, false)
		var prev parsec.TaskID
		for i := 0; i < ops; i++ {
			id := g.AddTask(int64(i), i%ranks, sim.Microsecond, 0, 1<<10)
			if i > 0 {
				g.Link(prev, 0, id)
			}
			prev = id
		}
		s := stack.New(b, ranks)
		cfg := parsec.DefaultConfig(2)
		cfg.Metrics = s.Metrics
		rt := parsec.New(s.Dom, s.Engines, g, cfg)
		return ops, func() error {
			_, err := rt.Run()
			return err
		}
	}
}

// hicmaPoolRung walks the virtual TLR pool with no runtime: for every task,
// the five calls the runtime makes while tracking its dependences.
func hicmaPoolRung(scale int) (int, func() error) {
	n := 72000
	if scale > 1 {
		n = 14400
	}
	pool := hicma.NewVirtual(hicma.DefaultParams(n, 1200), 16)
	// Enumerate the graph once, untimed: every task is reachable from the
	// roots along dependence edges.
	seen := make(map[parsec.TaskID]bool)
	var ids []parsec.TaskID
	push := func(t parsec.TaskID) {
		if !seen[t] {
			seen[t] = true
			ids = append(ids, t)
		}
	}
	for r := 0; r < 16; r++ {
		pool.Roots(r, push)
	}
	var deps []parsec.Dep
	for i := 0; i < len(ids); i++ {
		deps = pool.Successors(ids[i], 0, deps[:0])
		for _, d := range deps {
			push(d.Task)
		}
	}
	const callsPerTask = 5
	return len(ids) * callsPerTask, func() error {
		var sink int64
		for _, t := range ids {
			deps = pool.Inputs(t, deps[:0])
			sink += int64(len(deps))
			deps = pool.Successors(t, 0, deps[:0])
			sink += int64(len(deps)) + int64(pool.RankOf(t)) + int64(pool.Cost(t)) + pool.Priority(t)
		}
		if int64(len(ids)) != pool.TotalTasks() {
			return fmt.Errorf("walked %d tasks, pool has %d (checksum %d)", len(ids), pool.TotalTasks(), sink)
		}
		return nil
	}
}
