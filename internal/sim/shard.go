package sim

// A Domain is the scheduling surface of one simulation, spanning one or more
// shards. Every layer of the stack holds a Domain: the serial engine itself
// satisfies the interface (one shard), while a *Parallel domain (psim.go)
// spreads the same simulation across host cores.
//
// The contract that makes conservative parallel execution exact:
//
//   - every per-rank object (NIC engine Procs, library timers, worker
//     threads) is built on RankEngine(rank) and is only ever touched from
//     that engine's callbacks;
//   - the ONLY cross-rank channel is CrossAt, and a cross-shard CrossAt must
//     target a time at least the domain's lookahead past the source rank's
//     clock. In this codebase that is the fabric's wire latency floor
//     (fabric.Lookahead), which every inter-rank message pays before it can
//     touch the destination.
//
// Violating the second rule panics rather than silently reordering events.
type Domain interface {
	// RankEngine returns the engine that owns rank's events. All of a
	// rank's self-scheduling goes straight to this engine.
	RankEngine(rank int) *Engine

	// CrossAt schedules fn at absolute time t on dst's engine, from within
	// src's execution. Same-shard calls are ordinary At; cross-shard calls
	// are staged in the destination shard's inbox and admitted when its
	// conservative window reaches t.
	CrossAt(src, dst int, t Time, fn func())

	// Shards returns the number of shards (1 for a serial engine).
	Shards() int

	// ShardOf returns the shard index owning rank.
	ShardOf(rank int) int

	// Now returns the domain clock: the serial engine's clock, or the
	// maximum shard clock. Only meaningful outside Run on a parallel
	// domain — mid-run, shards legitimately disagree by up to the lookahead.
	Now() Time

	// Run executes the simulation to completion (or Stop) and returns the
	// time of the last fired event.
	Run() Time

	// Stop arms a domain-wide stop: a serial engine stops after the current
	// event, a parallel domain stops every shard on its next event check.
	Stop()
}

// Engine implements Domain as the one-shard degenerate case.

// RankEngine returns the engine itself: a serial engine owns every rank.
func (e *Engine) RankEngine(rank int) *Engine { return e }

// CrossAt is plain At on a serial engine; src and dst only matter when
// shards exist.
func (e *Engine) CrossAt(src, dst int, t Time, fn func()) { e.At(t, fn) }

// Shards returns 1: the serial engine is a single shard.
func (e *Engine) Shards() int { return 1 }

// ShardOf returns 0 for every rank.
func (e *Engine) ShardOf(rank int) int { return 0 }

// blockOwner maps rank onto one of shards contiguous blocks. Contiguity is
// deliberate: neighboring ranks exchange the most traffic in the paper's
// workloads (2D block-cyclic tile ownership, ring-structured control
// protocols), so block partitions keep the bulk of it intra-shard.
func blockOwner(rank, ranks, shards int) int {
	return rank * shards / ranks
}
