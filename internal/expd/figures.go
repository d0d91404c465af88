package expd

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"amtlci/internal/bench"
	"amtlci/internal/netpipe"
)

// Figure is one rendered table of a sweep, with the short name a CLI files
// it under (cmd/experiments -csv writes Name.csv).
type Figure struct {
	Name  string
	Table *bench.Table
	// Failures are the lines that follow the table, one per chaos point that
	// errored, crash proof whose verdict is not "verified" and fault rate
	// whose run aborted or computed a wrong answer. A figure with failures
	// fails the run that rendered it.
	Failures []string
}

// Figures renders a canonical spec and its results, with errs[i] point i's
// error (nil errs when none failed), as the paper's tables: Fig 2a/2b
// ("fig2a", "fig2b") for a pingpong spec, Fig 3 ("fig3") for an overlap
// spec, Fig 4a/4b ("fig4a", "fig4b") for a tile spec, Fig 5a/5b and Table 2
// ("fig5a", "fig5b", "table2") for a nodes spec. With MT, Fig 4b gains the
// multithreaded latency columns and the §6.4.3 time-to-solution table
// ("fig4a-mt") follows it. These specs must sweep both backends, and their
// failed points' errors are Figures' error. A chaos spec renders its
// fault-rate sweep ("chaos-rates") or its crash proofs
// ("chaos-crash-summary"), and its failed points become the table's
// Failures.
func Figures(s Spec, results []PointResult, errs []error) ([]Figure, error) {
	if s.Kind == KindChaos {
		return chaosFigures(s, results, errs)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	switch s.Kind {
	case KindPingPong:
		return pingpongFigures(results)
	case KindOverlap:
		return overlapFigures(results)
	case KindTile:
		return tileFigures(s, results)
	case KindNodes:
		points, err := StrongScalingFrom(s, results)
		if err != nil {
			return nil, err
		}
		cols := []string{"nodes", "LCI", "Open MPI", "Open MPI (best)"}
		fig5a := bench.NewTable("Fig 5a: strong scaling (s)", cols...)
		fig5b := bench.NewTable("Fig 5b: strong-scaling latency (ms)", cols...)
		tbl2 := bench.NewTable("Table 2: tile size with lowest time-to-solution", "nodes", "Open MPI", "LCI")
		for _, p := range points {
			nodes := strconv.Itoa(p.Nodes)
			fig5a.AddFloats(nodes, "%.2f",
				p.LCI.TimeToSolution, p.MPIAtLCI.TimeToSolution, p.MPIBest.TimeToSolution)
			fig5b.AddFloats(nodes, "%.2f",
				latency(p.LCI.E2ELatencyMS), latency(p.MPIAtLCI.E2ELatencyMS), latency(p.MPIBest.E2ELatencyMS))
			tbl2.AddRow(nodes, strconv.Itoa(p.MPIBestTile), strconv.Itoa(p.LCITile))
		}
		return []Figure{{Name: "fig5a", Table: fig5a}, {Name: "fig5b", Table: fig5b}, {Name: "table2", Table: tbl2}}, nil
	}
	return nil, fmt.Errorf("expd: no figures for kind %q", s.Kind)
}

// pingpongFigures renders a pingpong spec, whose points are ordered series
// (pingpongSeries) > backend (LCI, MPI) > size. Fig 2a carries the NetPIPE
// baseline at each size.
func pingpongFigures(results []PointResult) ([]Figure, error) {
	sizes := bench.PingPongSizes()
	n := len(sizes)
	if len(results) != len(pingpongSeries)*2*n {
		return nil, fmt.Errorf("expd: %d results, want %d", len(results), len(pingpongSeries)*2*n)
	}
	gbps := make([]float64, len(results))
	for i, r := range results {
		if r.PingPong == nil {
			return nil, fmt.Errorf("expd: point %d: missing pingpong result", i)
		}
		gbps[i] = r.PingPong.Gbps
	}
	fig2a := bench.NewTable("Fig 2a: one-stream ping-pong bandwidth (Gbit/s)",
		"granularity", "LCI", "Open MPI", "NetPIPE")
	fig2b := bench.NewTable("Fig 2b: two-stream ping-pong bandwidth (Gbit/s)",
		"granularity", "LCI", "Open MPI", "LCI (no sync)", "Open MPI (no sync)")
	for i, size := range sizes {
		at := func(series, backend int) float64 { return gbps[(series*2+backend)*n+i] }
		fig2a.AddFloats(bench.Bytes(size), "%.1f", at(0, 0), at(0, 1),
			netpipe.Bandwidth(netpipe.DefaultConfig(), size))
		fig2b.AddFloats(bench.Bytes(size), "%.1f", at(1, 0), at(1, 1), at(2, 0), at(2, 1))
	}
	return []Figure{{Name: "fig2a", Table: fig2a}, {Name: "fig2b", Table: fig2b}}, nil
}

// overlapFigures renders an overlap spec, whose points are ordered backend
// (LCI, MPI) > size. The Roofline and No-Overlap models depend on the
// worker count, and the figure takes them at Open MPI's.
func overlapFigures(results []PointResult) ([]Figure, error) {
	sizes := bench.OverlapSizes()
	n := len(sizes)
	if len(results) != 2*n {
		return nil, fmt.Errorf("expd: %d results, want %d", len(results), 2*n)
	}
	for i, r := range results {
		if r.Overlap == nil {
			return nil, fmt.Errorf("expd: point %d: missing overlap result", i)
		}
	}
	fig3 := bench.NewTable("Fig 3: overlap with GEMM-like intensity (GFLOP/s)",
		"granularity", "LCI", "Open MPI", "Roofline", "No Overlap")
	for i, size := range sizes {
		lci, mpi := results[i].Overlap, results[n+i].Overlap
		fig3.AddFloats(bench.Bytes(size), "%.0f", lci.GFLOPS, mpi.GFLOPS, mpi.Roofline, mpi.NoOverlap)
	}
	return []Figure{{Name: "fig3", Table: fig3}}, nil
}

// tileFigures renders a tile spec, whose points are ordered backend (LCI,
// MPI) > mt (off, on) > tile.
func tileFigures(s Spec, results []PointResult) ([]Figure, error) {
	mts, nt := 1, len(s.Tiles)
	cols := []string{"tile", "LCI", "Open MPI"}
	if s.MT {
		mts = 2
		cols = append(cols, "LCI (MT)", "Open MPI (MT)")
	}
	rs, err := hicmaResults(results, 2*mts*nt)
	if err != nil {
		return nil, err
	}
	fig4a := bench.NewTable(fmt.Sprintf("Fig 4a: TLR Cholesky time-to-solution, %d nodes (s)", s.Nodes),
		"tile", "LCI", "Open MPI")
	fig4b := bench.NewTable(fmt.Sprintf("Fig 4b: end-to-end latency, %d nodes (ms)", s.Nodes), cols...)
	mtTime := bench.NewTable(fmt.Sprintf("§6.4.3: time-to-solution with multithreaded ACTIVATE, %d nodes (s)", s.Nodes), cols...)
	for ti, nb := range s.Tiles {
		var tts, e2e []float64 // LCI, MPI[, LCI (MT), MPI (MT)]
		for mt := 0; mt < mts; mt++ {
			for b := 0; b < 2; b++ {
				r := rs[(b*mts+mt)*nt+ti]
				tts = append(tts, r.TimeToSolution)
				e2e = append(e2e, latency(r.E2ELatencyMS))
			}
		}
		tile := strconv.Itoa(nb)
		fig4a.AddFloats(tile, "%.2f", tts[:2]...)
		fig4b.AddFloats(tile, "%.2f", e2e...)
		mtTime.AddFloats(tile, "%.2f", tts...)
	}
	figs := []Figure{{Name: "fig4a", Table: fig4a}, {Name: "fig4b", Table: fig4b}}
	if s.MT {
		figs = append(figs, Figure{Name: "fig4a-mt", Table: mtTime})
	}
	return figs, nil
}

// hicmaResults unwraps the want HiCMA results of a tile or nodes sweep.
func hicmaResults(results []PointResult, want int) ([]bench.HiCMAResult, error) {
	if len(results) != want {
		return nil, fmt.Errorf("expd: %d results, want %d", len(results), want)
	}
	rs := make([]bench.HiCMAResult, want)
	for i, r := range results {
		if r.HiCMA == nil {
			return nil, fmt.Errorf("expd: point %d: missing hicma result", i)
		}
		rs[i] = *r.HiCMA
	}
	return rs, nil
}

// latency turns a cached latency mean back into what the run measured: a
// run that sent no messages (one node, or one tile) has no latency samples,
// which evalPoint stores as 0 because JSON cannot carry NaN.
func latency(ms float64) float64 {
	if ms == 0 {
		return math.NaN()
	}
	return ms
}

// BestTile returns the result with the lowest time-to-solution (Table 2's
// per-node-count argmin).
func BestTile(results []bench.HiCMAResult) bench.HiCMAResult {
	best := results[0]
	for _, r := range results[1:] {
		if r.TimeToSolution < best.TimeToSolution {
			best = r
		}
	}
	return best
}

// StrongScalingPoint is one node count of Figure 5: LCI at its best tile,
// Open MPI at LCI's best tile, and Open MPI at its own best tile.
type StrongScalingPoint struct {
	Nodes       int
	LCI         bench.HiCMAResult // best LCI tile
	MPIAtLCI    bench.HiCMAResult // MPI at the LCI-optimal tile
	MPIBest     bench.HiCMAResult // MPI at its own best tile
	LCITile     int
	MPIBestTile int
}

// StrongScalingFrom reassembles a completed nodes-kind sweep into the
// Figure 5 / Table 2 series: node count outer, LCI then MPI, tiles inner —
// the order Spec.Points emits. The whole (node x backend x tile) grid is one
// sweep, so a large worker count keeps every worker busy even when a single
// node count has few tiles.
func StrongScalingFrom(s Spec, results []PointResult) ([]StrongScalingPoint, error) {
	if s.Kind != KindNodes {
		return nil, fmt.Errorf("expd: StrongScalingFrom wants a %q spec, got %q", KindNodes, s.Kind)
	}
	nt := len(s.Tiles)
	rs, err := hicmaResults(results, len(s.NodeCounts)*2*nt)
	if err != nil {
		return nil, err
	}
	var out []StrongScalingPoint
	for ni, nd := range s.NodeCounts {
		lciAll := rs[ni*2*nt : ni*2*nt+nt]
		mpiAll := rs[ni*2*nt+nt : (ni+1)*2*nt]
		lciBest := BestTile(lciAll)
		mpiBest := BestTile(mpiAll)
		var mpiAtLCI bench.HiCMAResult
		for _, r := range mpiAll {
			if r.NB == lciBest.NB {
				mpiAtLCI = r
			}
		}
		out = append(out, StrongScalingPoint{
			Nodes: nd, LCI: lciBest, MPIAtLCI: mpiAtLCI, MPIBest: mpiBest,
			LCITile: lciBest.NB, MPIBestTile: mpiBest.NB,
		})
	}
	return out, nil
}
