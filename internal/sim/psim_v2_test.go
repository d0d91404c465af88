package sim

import (
	"fmt"
	"testing"
)

// runRefWorkload is runWorkload on the heap-backed reference engine.
func runRefWorkload(ranks int, seed uint64, events, lookQ int) [][]traceRec {
	e := NewRefEngine()
	return runWorkloadOn(workloadHost{
		now:   func(int) Time { return e.Now() },
		local: func(_ int, t Time, fn func()) { e.At(t, fn) },
		cross: func(_, _ int, t Time, fn func()) { e.At(t, fn) },
		run:   func() { e.Run() },
	}, ranks, seed, events, lookQ)
}

// The second independent oracle: the sharded domain must match the
// container/heap reference engine, not just the calendar-queue serial engine.
func TestParallelMatchesRefEngine(t *testing.T) {
	const lookQ = 2
	for _, ranks := range []int{3, 8} {
		for _, seed := range []uint64{7, 0xcafe} {
			ref := runRefWorkload(ranks, seed, 40, lookQ)
			got := runWorkload(NewParallel(ranks, 4, quantum*lookQ), ranks, seed, 40, lookQ)
			diffTraces(t, fmt.Sprintf("ref ranks=%d seed=%d", ranks, seed), ref, got)
		}
	}
}

// countingDomain is what the serial engine and Parallel share beyond Domain.
type countingDomain interface {
	Domain
	Fired() uint64
}

// runChain runs a local chain of n events, step apart, on rank 0 of dom,
// beside whatever setup schedules, and returns how many events fired.
func runChain(dom countingDomain, n int, step Duration, setup func(Domain)) uint64 {
	left := n
	var tick func()
	tick = func() {
		if left--; left > 0 {
			dom.RankEngine(0).After(step, tick)
		}
	}
	dom.RankEngine(0).At(0, tick)
	if setup != nil {
		setup(dom)
	}
	dom.Run()
	return dom.Fired()
}

// Idle-shard elision: with work confined to one shard, the other shards must
// be skipped (no wakeup, no barrier arrival) — the elision counter proves the
// fast path ran — and the domain must fire exactly what the serial engine
// fires on the same workload.
func TestParallelElisionSkipsIdleShards(t *testing.T) {
	want := runChain(NewEngine(), 64, quantum/8, nil)
	p := NewParallel(8, 4, quantum)
	if got := runChain(p, 64, quantum/8, nil); got != want {
		t.Fatalf("sharded domain fired %d events, serial %d", got, want)
	}
	if p.ElidedShardRounds() == 0 {
		t.Fatalf("no shard-rounds elided across %d rounds", p.Rounds())
	}
}

// Window coalescing: horizons are data-driven, so a dense communication-free
// stretch on one shard — 256 events spanning 64 lookaheads — sees the other
// shard's only event a full chain-length away and drains in a small constant
// number of rounds, not one per lookahead quantum.
func TestParallelCoalescingCollapsesQuietStretches(t *testing.T) {
	const chain = 256
	// Shard 1 has one distant event, so the domain stays genuinely
	// multi-shard throughout the stretch.
	distant := func(dom Domain) { dom.RankEngine(1).At(Time(quantum)*chain, func() {}) }
	want := runChain(NewEngine(), chain, quantum/4, distant)
	p := NewParallel(2, 2, quantum)
	if got := runChain(p, chain, quantum/4, distant); got != want {
		t.Fatalf("sharded domain fired %d events, serial %d", got, want)
	}
	if p.Rounds() > 4 {
		t.Fatalf("quiet stretch of %d events took %d rounds, want a small constant", chain, p.Rounds())
	}
}

// A round that stages a cross send must clamp its window to the send's
// reflection bound: the destination echoes every arrival straight back, and
// any over-advance past the echo's timestamp would panic inside the engine
// (scheduling before now) or diverge from serial. This pins the guard
// against the one-shard-drains-everything failure mode.
func TestParallelReflectionGuard(t *testing.T) {
	const L = Duration(quantum)
	run := func(dom Domain) []traceRec {
		var trace []traceRec
		// Rank 0 (shard 0): dense local chain; its first event also sends
		// one cross message. Rank 1 (shard 1): echoes the arrival back.
		n := 0
		var tick func()
		tick = func() {
			trace = append(trace, traceRec{at: dom.RankEngine(0).Now(), tag: uint64(n)})
			n++
			if n < 128 {
				dom.RankEngine(0).After(Duration(quantum/8), tick)
			}
		}
		// The +1 offsets keep cross timestamps off the chain's tick grid:
		// same-timestamp cross/local ties are the protocol's one documented
		// (measure-zero) divergence from serial and not what this test pins.
		dom.RankEngine(0).At(0, func() {
			at := dom.RankEngine(0).Now().Add(L) + 1
			dom.CrossAt(0, 1, at, func() {
				back := dom.RankEngine(1).Now().Add(L) + 1
				dom.CrossAt(1, 0, back, func() {
					trace = append(trace, traceRec{at: dom.RankEngine(0).Now(), tag: 0xec0})
				})
			})
			tick()
		})
		dom.Run()
		return trace
	}
	serial := run(NewEngine())
	got := run(NewParallel(2, 2, L))
	if len(serial) != len(got) {
		t.Fatalf("sharded fired %d events, serial %d", len(got), len(serial))
	}
	for i := range serial {
		if serial[i] != got[i] {
			t.Fatalf("event %d = %+v, serial %+v", i, got[i], serial[i])
		}
	}
}

// runPulseWorkload drives a pulse-shaped workload: rank 0 runs a quiet
// local chain (every other shard elided), then broadcasts to all ranks at
// the lookahead floor (regrowing the active set to every shard at once),
// and the replies converge back onto shard 0 to seed the next pulse. Every
// timestamp is unique by construction, so the firing order is a pure
// function of virtual time.
func runPulseWorkload(dom Domain, ranks, pulses, quiet int) [][]traceRec {
	lookahead := quantum
	traces := make([][]traceRec, ranks)
	q := Time(quantum)
	rec := func(rank int, tag uint64) {
		traces[rank] = append(traces[rank], traceRec{at: dom.RankEngine(rank).Now(), tag: tag})
	}
	replies := 0 // touched only by shard 0's execution
	var pulse func(p int)
	pulse = func(p int) {
		if p >= pulses {
			return
		}
		e0 := dom.RankEngine(0)
		base := (e0.Now()/q + 1) * q
		for i := 0; i < quiet; i++ {
			tag := uint64(p)<<16 | uint64(i)
			e0.At(base+Time(i)*q, func() { rec(0, tag) })
		}
		bcast := base + Time(quiet)*q
		for d := 1; d < ranks; d++ {
			dst := d
			tag := uint64(p)<<16 | 0x100 | uint64(dst)
			rtag := uint64(p)<<16 | 0x200 | uint64(dst)
			dom.CrossAt(0, dst, bcast.Add(lookahead)+Time(dst), func() {
				rec(dst, tag)
				dom.CrossAt(dst, 0, dom.RankEngine(dst).Now().Add(lookahead), func() {
					rec(0, rtag)
					replies++
					if replies == ranks-1 {
						replies = 0
						pulse(p + 1)
					}
				})
			})
		}
	}
	dom.RankEngine(0).At(q, func() { pulse(0) })
	dom.Run()
	return traces
}

// The per-round active set oscillating between one shard and every shard —
// elision shrinks one round's plan, the following broadcast regrows it — is
// the regime where a runner straggling out of a small round could once pair
// its stale, exhausted work-queue cursor with the next, larger plan and
// claim (hence double-run) one of its windows. Many pulses under the race
// detector pin the round-tagged claim protocol; the trace must stay
// bit-identical to serial throughout.
func TestParallelActiveSetOscillationStress(t *testing.T) {
	const ranks, pulses, quiet = 8, 150, 3
	serial := runPulseWorkload(NewEngine(), ranks, pulses, quiet)
	for _, shards := range []int{4, 8} {
		p := NewParallel(ranks, shards, quantum)
		got := runPulseWorkload(p, ranks, pulses, quiet)
		diffTraces(t, fmt.Sprintf("shards=%d", shards), serial, got)
		if p.Pending() != 0 {
			t.Fatalf("shards=%d: %d events still pending", shards, p.Pending())
		}
		if p.ElidedShardRounds() == 0 {
			t.Fatalf("shards=%d: quiet phases elided nothing across %d rounds; workload does not oscillate",
				shards, p.Rounds())
		}
	}
}
