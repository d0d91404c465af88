package parsec

import (
	"amtlci/internal/sim"
	"amtlci/internal/stats"
)

// Tracer accumulates end-to-end communication latencies: from the send of
// the root ACTIVATE message until data arrival at each consumer, across the
// entire multicast tree (the Fig. 4b / 5b metric), plus the per-hop latency
// from the direct multicast predecessor (§6.4.3).
type Tracer struct {
	// lanes[r] accumulates samples whose RECEIVER is rank r. Samples are
	// recorded on the receiving rank's shard, so per-rank lanes make the
	// tracer safe under a sharded domain with no locking; readers merge the
	// lanes in rank order, which is deterministic.
	lanes []traceLane
}

type traceLane struct {
	e2e stats.Online
	hop stats.Online
}

// NewTracer builds a tracer for n ranks.
func NewTracer(n int) *Tracer { return &Tracer{lanes: make([]traceLane, n)} }

// Sample records one data arrival at rank me. rootSend and hopSend are the
// virtual times at which the root and the hop sender sent; every stamp reads
// the simulator's one clock, so latencies are exact.
func (tr *Tracer) Sample(rootSend, hopSend int64, me int, arrival sim.Time) {
	a := float64(arrival)
	l := &tr.lanes[me]
	l.e2e.Add((a - float64(rootSend)) / float64(sim.Microsecond))
	l.hop.Add((a - float64(hopSend)) / float64(sim.Microsecond))
}

// EndToEnd returns summary statistics of end-to-end latency in microseconds,
// merged across receiving ranks. Call it after the run: merging while shards
// are still sampling would race.
func (tr *Tracer) EndToEnd() *stats.Online {
	var o stats.Online
	for i := range tr.lanes {
		o.Merge(&tr.lanes[i].e2e)
	}
	return &o
}

// Hop returns summary statistics of single-hop latency in microseconds,
// merged across receiving ranks (same post-run caveat as EndToEnd).
func (tr *Tracer) Hop() *stats.Online {
	var o stats.Online
	for i := range tr.lanes {
		o.Merge(&tr.lanes[i].hop)
	}
	return &o
}
