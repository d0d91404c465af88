package bench

import (
	"fmt"

	"amtlci/internal/buf"
	"amtlci/internal/coll"
	"amtlci/internal/core/stack"
	"amtlci/internal/sim"
)

// CollOpts parameterizes one collective measurement: one algorithm of an
// expd coll point (backend, rank count, operation, payload).
type CollOpts struct {
	Backend stack.Backend
	Kind    coll.Kind
	// Algo may be coll.Auto to measure what the selector picks.
	Algo  coll.Algorithm
	Ranks int
	// Size follows each operation's selector convention: the full buffer
	// for Bcast/Reduce/Allreduce, one rank's block for Allgather, ignored
	// for Barrier.
	Size int64
	// Iters back-to-back operations are timed together (per-rank chaining,
	// as an application loop would issue them); the mean is reported.
	Iters int
	Tune  coll.Tune
	Seed  uint64
}

// CollTuneFor returns the backend-calibrated selector thresholds, measured
// with `collbench -csv` over ranks {4,16,64} and sizes 256 B – 4 MiB. The
// MPI backend's higher per-message cost (global-array polling, handshake on
// the comm thread) pushes every bandwidth-algorithm crossover up and makes
// Bruck — fewest messages — unbeatable for allgather at 64 ranks.
func CollTuneFor(b stack.Backend) coll.Tune {
	t := coll.DefaultTune() // the LCI calibration
	if b == stack.MPI {
		t.BcastChainMin = 2 << 20
		t.BcastChainMinRanks = 8
		t.ReduceChainMin = 4 << 20
		t.ReduceChainMinRanks = 8
		t.AllgatherRingMin = 2 << 20
		t.AllgatherRingMaxRanks = 32
	}
	return t
}

// DefaultCollOpts returns the paper-calibrated configuration for one point.
func DefaultCollOpts(b stack.Backend, k coll.Kind, ranks int, size int64) CollOpts {
	return CollOpts{
		Backend: b,
		Kind:    k,
		Algo:    coll.Auto,
		Ranks:   ranks,
		Size:    size,
		Iters:   3,
		Tune:    CollTuneFor(b),
		Seed:    1,
	}
}

// CollResult is one measured point.
type CollResult struct {
	// Time is the mean virtual completion time of one operation (entry of
	// the first rank to completion on the last).
	Time sim.Duration
	// Picked is the algorithm that actually ran (resolves Auto).
	Picked coll.Algorithm
}

// Collective measures one configuration in virtual time. Payloads are
// virtual buffers — collbench sweeps to paper-scale sizes where real bytes
// would be pointless — and the simulation is deterministic for a fixed
// Seed, so repeated runs emit identical CSVs.
func Collective(o CollOpts) CollResult {
	if o.Iters <= 0 {
		o.Iters = 1
	}
	picked := o.Algo
	if picked == coll.Auto {
		picked = o.Tune.Pick(o.Kind, o.Size, o.Ranks)
	}

	so := stack.DefaultOptions(o.Backend, o.Ranks)
	if o.Seed != 0 {
		so.Seed = o.Seed
	}
	s := stack.Build(so)
	comms := make([]*coll.Communicator, o.Ranks)
	for r := 0; r < o.Ranks; r++ {
		comms[r] = coll.New(s.Engines[r], coll.DefaultTagBase, o.Tune)
	}

	issue := func(c *coll.Communicator, done func()) {
		switch o.Kind {
		case coll.OpBcast:
			c.Bcast(buf.Virtual(o.Size), 0, o.Algo, done)
		case coll.OpReduce:
			var dst buf.Buf
			if c.Rank() == 0 {
				dst = buf.Virtual(o.Size)
			}
			c.Reduce(dst, buf.Virtual(o.Size), coll.Sum, 0, o.Algo, done)
		case coll.OpAllreduce:
			c.Allreduce(buf.Virtual(o.Size), buf.Virtual(o.Size), coll.Sum, o.Algo, done)
		case coll.OpAllgather:
			c.Allgather(buf.Virtual(o.Size*int64(o.Ranks)), buf.Virtual(o.Size), o.Algo, done)
		case coll.OpBarrier:
			c.Barrier(o.Algo, done)
		default:
			panic(fmt.Sprintf("bench: unknown collective kind %v", o.Kind))
		}
	}

	// Each rank chains its iterations, as an application loop would; the
	// sequence numbers keep successive operations matched while adjacent
	// iterations overlap naturally across ranks.
	left := o.Ranks
	for r := 0; r < o.Ranks; r++ {
		c := comms[r]
		iter := 0
		var next func()
		next = func() {
			if iter == o.Iters {
				left--
				return
			}
			iter++
			issue(c, next)
		}
		next()
	}
	end := s.Eng.Run()
	if left != 0 {
		panic(fmt.Sprintf("bench: collective %v/%v n=%d size=%d: %d ranks unfinished",
			o.Kind, picked, o.Ranks, o.Size, left))
	}
	return CollResult{Time: sim.Duration(end) / sim.Duration(o.Iters), Picked: picked}
}

// CollSizes is the payload sweep of cmd/collbench: 256 B (eager) to 4 MiB
// (32 segments), in steps of 4x.
func CollSizes() []int64 {
	var out []int64
	for s := int64(256); s <= 8<<20; s *= 4 {
		out = append(out, s)
	}
	return out
}
