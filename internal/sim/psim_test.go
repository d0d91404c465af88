package sim

import (
	"fmt"
	"testing"
)

// traceRec is one fired event in a rank's observation stream: virtual time
// plus a payload identifying the logical event. Bit-identity of these
// per-rank streams across shard counts is the exactness criterion.
type traceRec struct {
	at  Time
	tag uint64
}

// quantum is the timestamp granularity of the synthetic workload: every
// delay is a whole number of quanta, and every scheduled event adds a
// globally unique sub-quantum offset. Unique timestamps make the workload's
// firing order a pure function of timestamps — same-instant ties between a
// cross-shard arrival and an independently scheduled local event are the one
// place serial and sharded tie-breaking legitimately differ (serial breaks
// by global scheduling order, which no parallel admission can reconstruct;
// see DESIGN.md §3), and the fabric's jitter makes such ties measure-zero
// in real workloads. Tie-breaking that IS preserved (same-source sends,
// same-rank scheduling) gets its own deterministic tests below.
const quantum = Duration(1 << 20)

// workloadHost is the scheduling surface runWorkloadOn needs: any Domain
// (domainHost), or the heap-backed reference engine, which is not one (its At
// returns *RefEvent) and takes cross-rank sends as plain At, exactly like the
// serial engine's CrossAt.
type workloadHost struct {
	now   func(rank int) Time
	local func(rank int, t Time, fn func())
	cross func(src, dst int, t Time, fn func())
	run   func()
}

func domainHost(dom Domain) workloadHost {
	return workloadHost{
		now:   func(rank int) Time { return dom.RankEngine(rank).Now() },
		local: func(rank int, t Time, fn func()) { dom.RankEngine(rank).At(t, fn) },
		cross: dom.CrossAt,
		run:   func() { dom.Run() },
	}
}

// runWorkload drives a synthetic multi-rank message-passing workload on any
// Domain. Every rank owns an RNG and a bounded event budget; each event
// records itself, then randomly schedules local follow-ups and cross-rank
// sends at >= lookQ quanta of lookahead distance, the shape the fabric
// produces. All randomness is drawn in the observing rank's execution order,
// so identical per-rank firing order implies identical draws implies
// identical traces — any conservative-sync bug shows up as a divergence.
func runWorkload(dom Domain, ranks int, seed uint64, events, lookQ int) [][]traceRec {
	return runWorkloadOn(domainHost(dom), ranks, seed, events, lookQ)
}

func runWorkloadOn(h workloadHost, ranks int, seed uint64, events, lookQ int) [][]traceRec {
	lookahead := quantum * Duration(lookQ)
	traces := make([][]traceRec, ranks)
	rngs := make([]*RNG, ranks)
	budget := make([]int, ranks)
	offs := make([]uint64, ranks)
	for r := 0; r < ranks; r++ {
		rngs[r] = NewRNG(seed + uint64(r)*0x9e3779b97f4a7c15)
		budget[r] = events
	}
	// nextOff returns a globally unique offset < quantum, drawn in the
	// calling rank's execution order (hence identically across shardings).
	nextOff := func(rank int) Time {
		o := offs[rank]*uint64(ranks) + uint64(rank)
		offs[rank]++
		return Time(o)
	}
	alignUp := func(t Time) Time {
		q := Time(quantum)
		return (t + q - 1) / q * q
	}
	var fire func(rank int, tag uint64)
	fire = func(rank int, tag uint64) {
		traces[rank] = append(traces[rank], traceRec{at: h.now(rank), tag: tag})
		if budget[rank] <= 0 {
			return
		}
		budget[rank]--
		rng := rngs[rank]
		n := rng.Intn(3)
		for i := 0; i < n; i++ {
			base := alignUp(h.now(rank))
			switch rng.Intn(3) {
			case 0: // local follow-up, possibly within the current quantum
				at := base + Time(quantum)*Time(rng.Intn(3)) + nextOff(rank)
				next := tag*8 + uint64(i) + 1
				h.local(rank, at, func() { fire(rank, next) })
			case 1: // cross-rank send at the lookahead floor
				dst := rng.Intn(ranks)
				at := base.Add(lookahead) + nextOff(rank)
				next := tag*8 + uint64(i) + 2
				h.cross(rank, dst, at, func() { fire(dst, next) })
			default: // cross-rank send with extra wire delay
				dst := rng.Intn(ranks)
				at := base.Add(lookahead+quantum*Duration(rng.Intn(3))) + nextOff(rank)
				next := tag*8 + uint64(i) + 3
				h.cross(rank, dst, at, func() { fire(dst, next) })
			}
		}
	}
	for r := 0; r < ranks; r++ {
		rank := r
		at := Time(quantum)*Time(rank%5+1) + nextOff(rank)
		h.local(rank, at, func() { fire(rank, uint64(rank)<<32) })
	}
	h.run()
	return traces
}

func diffTraces(t *testing.T, label string, want, got [][]traceRec) {
	t.Helper()
	for r := range want {
		if len(want[r]) != len(got[r]) {
			t.Fatalf("%s: rank %d fired %d events, serial fired %d", label, r, len(got[r]), len(want[r]))
		}
		for i := range want[r] {
			if want[r][i] != got[r][i] {
				t.Fatalf("%s: rank %d event %d = %+v, serial %+v", label, r, i, got[r][i], want[r][i])
			}
		}
	}
}

// The tentpole differential: the same workload on the serial engine and on
// Parallel domains with shards in {1, 2, 4, 8} must produce bit-identical
// per-rank event streams.
func TestParallelMatchesSerialEngine(t *testing.T) {
	const lookQ = 2
	for _, ranks := range []int{1, 3, 8, 16} {
		for _, seed := range []uint64{1, 42, 0xdead, 0xbeef} {
			serial := runWorkload(NewEngine(), ranks, seed, 40, lookQ)
			for _, shards := range []int{1, 2, 4, 8} {
				p := NewParallel(ranks, shards, quantum*lookQ)
				got := runWorkload(p, ranks, seed, 40, lookQ)
				diffTraces(t, fmt.Sprintf("ranks=%d seed=%d shards=%d", ranks, seed, shards), serial, got)
				if p.Pending() != 0 {
					t.Fatalf("ranks=%d shards=%d: %d events still pending after Run", ranks, shards, p.Pending())
				}
			}
		}
	}
}

// Repeated runs of the same sharded configuration must agree with each other
// (and with serial) even under scheduler noise; -race makes this the shard
// handoff race test.
func TestParallelDeterministicAcrossRepeats(t *testing.T) {
	const ranks, shards, lookQ = 12, 4, 1
	serial := runWorkload(NewEngine(), ranks, 7, 60, lookQ)
	for rep := 0; rep < 8; rep++ {
		got := runWorkload(NewParallel(ranks, shards, quantum*lookQ), ranks, 7, 60, lookQ)
		diffTraces(t, fmt.Sprintf("repeat %d", rep), serial, got)
	}
}

func TestParallelStopHaltsAllShards(t *testing.T) {
	const ranks, shards = 8, 4
	p := NewParallel(ranks, shards, Duration(1000))
	fired := make([]int, shards)
	for r := 0; r < ranks; r++ {
		rank := r
		sh := p.ShardOf(rank)
		var tick func()
		tick = func() {
			fired[sh]++
			p.RankEngine(rank).After(500, tick)
		}
		p.RankEngine(rank).At(0, tick)
	}
	// Stop from inside rank 0's execution once it has done some work.
	stopAt := 200
	var watch func()
	watch = func() {
		if fired[0] >= stopAt {
			p.Stop()
			return
		}
		p.RankEngine(0).After(250, watch)
	}
	p.RankEngine(0).At(0, watch)

	end := p.Run()
	if fired[0] < stopAt {
		t.Fatalf("stopped before the trigger: shard 0 fired %d", fired[0])
	}
	total := 0
	for _, n := range fired {
		total += n
	}
	if total > stopAt*shards*4 {
		t.Fatalf("stop did not halt promptly: %d events fired (end clock %v)", total, end)
	}
	// The stop was consumed: a fresh Run drains nothing... there is still
	// pending work, so arm a pre-stop and verify it aborts immediately.
	p.Stop()
	before := p.Fired()
	p.Run()
	if p.Fired() != before {
		t.Fatalf("pre-armed domain stop fired %d events", p.Fired()-before)
	}
}

// A shard engine's own armed stop (e.g. a failure handler calling
// RankEngine(r).Stop()) must stop the whole domain at the window boundary.
func TestParallelShardEngineStopStopsDomain(t *testing.T) {
	const ranks, shards = 8, 4
	p := NewParallel(ranks, shards, Duration(1000))
	perShard := make([]int, shards) // each element touched only by its shard
	for r := 0; r < ranks; r++ {
		rank := r
		sh := p.ShardOf(rank)
		var tick func()
		tick = func() {
			perShard[sh]++
			p.RankEngine(rank).After(600, tick)
		}
		p.RankEngine(rank).At(0, tick)
	}
	p.RankEngine(ranks-1).At(5000, func() { p.RankEngine(ranks - 1).Stop() })
	p.Run()
	count := 0
	for _, n := range perShard {
		count += n
	}
	if count == 0 {
		t.Fatal("nothing fired before the shard stop")
	}
	if count > ranks*100 {
		t.Fatalf("shard stop did not propagate: %d events fired", count)
	}
}

func TestParallelCrossAtLookaheadViolationPanics(t *testing.T) {
	p := NewParallel(4, 2, Duration(1000))
	defer func() {
		if recover() == nil {
			t.Fatal("cross-shard CrossAt below lookahead did not panic")
		}
	}()
	// Rank 0 is shard 0, rank 3 is shard 1: 999 < lookahead 1000.
	p.CrossAt(0, 3, Time(999), func() {})
}

func TestParallelSameShardCrossAtIgnoresLookahead(t *testing.T) {
	p := NewParallel(4, 2, Duration(1000))
	ran := false
	p.CrossAt(0, 1, Time(3), func() { ran = true }) // both ranks on shard 0
	if got := p.Run(); got != 3 || !ran {
		t.Fatalf("Run() = %v (ran=%v), want 3 (true)", got, ran)
	}
}

func TestBlockOwnerPartition(t *testing.T) {
	for _, c := range []struct{ ranks, shards int }{{8, 1}, {8, 2}, {8, 8}, {7, 3}, {1024, 8}, {5, 4}} {
		prev := 0
		counts := make([]int, c.shards)
		for r := 0; r < c.ranks; r++ {
			s := blockOwner(r, c.ranks, c.shards)
			if s < 0 || s >= c.shards {
				t.Fatalf("blockOwner(%d, %d, %d) = %d out of range", r, c.ranks, c.shards, s)
			}
			if s < prev {
				t.Fatalf("blockOwner not monotone at rank %d (%d/%d)", r, c.ranks, c.shards)
			}
			prev = s
			counts[s]++
		}
		for s, n := range counts {
			if n == 0 {
				t.Fatalf("shard %d empty for ranks=%d shards=%d", s, c.ranks, c.shards)
			}
			if n > (c.ranks+c.shards-1)/c.shards+1 {
				t.Fatalf("shard %d owns %d ranks of %d/%d: unbalanced", s, n, c.ranks, c.shards)
			}
		}
	}
}

// Two cross-shard sends from the same source to the same destination at the
// same timestamp must fire in send order — the inbox's (when, src, seq) sort
// reproduces exactly the serial engine's generation-order tie-break for this
// case, because srcSeq increments in the source's execution order.
func TestParallelSameSourceTieOrder(t *testing.T) {
	const L = Duration(1000)
	run := func(dom Domain) []int {
		var order []int
		dom.RankEngine(0).At(0, func() {
			at := dom.RankEngine(0).Now().Add(L)
			for i := 0; i < 5; i++ {
				i := i
				dom.CrossAt(0, 3, at, func() { order = append(order, i) })
			}
		})
		dom.Run()
		return order
	}
	serial := run(NewEngine())
	sharded := run(NewParallel(4, 2, L))
	if len(serial) != 5 || len(sharded) != 5 {
		t.Fatalf("fired %d serial / %d sharded events, want 5 each", len(serial), len(sharded))
	}
	for i := range serial {
		if serial[i] != i || sharded[i] != i {
			t.Fatalf("tie order: serial %v, sharded %v, want send order", serial, sharded)
		}
	}
}

// FuzzInboxOrder fuzzes the cross-shard handoff directly: arbitrary staged
// timestamps, sources, and interleavings must always be admitted in (when,
// src shard, src seq) order and produce serial-identical traces.
func FuzzInboxOrder(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(2), uint8(20))
	f.Add(uint64(99), uint8(9), uint8(3), uint8(35))
	f.Add(uint64(0xfeed), uint8(16), uint8(8), uint8(10))
	f.Fuzz(func(t *testing.T, seed uint64, ranks, shards, events uint8) {
		nr := int(ranks)%16 + 1
		ns := int(shards)%8 + 1
		ev := int(events) % 48
		const lookQ = 1
		serial := runWorkload(NewEngine(), nr, seed, ev, lookQ)
		got := runWorkload(NewParallel(nr, ns, quantum*lookQ), nr, seed, ev, lookQ)
		diffTraces(t, fmt.Sprintf("ranks=%d shards=%d", nr, ns), serial, got)
	})
}
