package stack

import (
	"runtime"
	"testing"

	"amtlci/internal/parsec"
	recov "amtlci/internal/recover"
)

// TestConstructionFootprint bounds what a deployment costs the host before it
// has moved a byte: a 64-rank stack, a runtime with the paper's 126 worker
// cores per rank, and a checkpoint manager per rank (whose tag accepts 1 MiB
// frames). Memory follows use — a registered tag is a capacity, a worker core
// a slot, a flow record a free-list entry — so construction stays in the tens
// of KiB per rank on both backends. Five persistent-receive buffers per tag,
// sized to each tag's maxLen, would come to 5.3 MiB per rank on the MPI
// backend: ten times the bound.
func TestConstructionFootprint(t *testing.T) {
	const ranks = 64
	const boundPerRank = 512 << 10
	perRank := map[Backend]float64{}
	for _, b := range Backends {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := New(b, ranks)
		g := parsec.NewGraphPool("empty", ranks, false)
		rt := parsec.New(s.Dom, s.Engines, g, parsec.DefaultConfig(126))
		managers := make([]*recov.Manager, ranks)
		for r, e := range s.Engines {
			managers[r] = recov.NewManager(e, s.Metrics)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(rt)
		runtime.KeepAlive(managers)
		perRank[b] = float64(after.TotalAlloc-before.TotalAlloc) / ranks
		t.Logf("%v: %.0f bytes allocated per rank", b, perRank[b])
		if perRank[b] > boundPerRank {
			t.Errorf("%v: construction allocates %.0f bytes per rank, want <= %d", b, perRank[b], boundPerRank)
		}
	}
	if lo, hi := min(perRank[LCI], perRank[MPI]), max(perRank[LCI], perRank[MPI]); hi > 2*lo {
		t.Errorf("construction footprints differ by more than 2x: LCI %.0f, Open MPI %.0f bytes per rank",
			perRank[LCI], perRank[MPI])
	}
}
