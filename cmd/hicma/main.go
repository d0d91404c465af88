// Command hicma regenerates the HiCMA TLR Cholesky experiments of Section
// 6.4: tile scaling (Figures 4a/4b), communication multithreading (§6.4.3),
// strong scaling (Figures 5a/5b), and the best-tile table (Table 2).
//
// Usage:
//
//	hicma -sweep tile  [-nodes N] [-mt]      Fig 4a/4b (+ §6.4.3 with -mt)
//	hicma -sweep nodes                        Fig 5a/5b + Table 2
//	hicma -nb NB -nodes N [-mt]               one configuration
//
// Common flags: -scale F shrinks the N=360,000 problem, -runs N sets the
// measurement protocol (mean of 5 in the paper), -syncclocks enables the
// §6.1.3 clock-synchronization epoch over skewed rank clocks, -steal turns
// on inter-rank work stealing, -j N runs N sweep points in parallel (0 =
// all CPUs) with output identical to -j 1.
//
// The sweeps drive the same spec codepath as the simd experiment service
// (internal/expd): the flags build a canonical spec, the spec expands to
// content-addressed points, and expd.HiCMAFigures renders the results as
// cmd/experiments does. -cache DIR shares simd's on-disk result cache so a
// sweep the service already ran (or a re-run of this command) completes
// without re-simulating.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"amtlci/internal/expd"
)

func main() {
	sweep := flag.String("sweep", "", `"tile" (Fig 4), "nodes" (Fig 5 + Table 2), or empty for one run`)
	nodes := flag.Int("nodes", 16, "node count for single runs and the tile sweep")
	nb := flag.Int("nb", 2400, "tile size for single runs")
	mt := flag.Bool("mt", false, "enable communication multithreading for ACTIVATE messages")
	scale := flag.Float64("scale", 1.0, "problem-size scale factor in (0,1]; 1 = the paper's N=360,000")
	runs := flag.Int("runs", 5, "executions per configuration (paper: mean of five)")
	syncClocks := flag.Bool("syncclocks", false, "synchronize skewed rank clocks before measuring (§6.1.3)")
	steal := flag.Bool("steal", false, "enable inter-rank work stealing (idle ranks pull ready tasks from loaded peers)")
	j := flag.Int("j", 1, "parallel sweep workers (0 = one per CPU); output is identical for every value")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (share simd's state/cache to reuse its points)")
	flag.Parse()

	s := expd.Spec{Kind: expd.KindTile, Scale: *scale, Nodes: *nodes, MT: *mt,
		SyncClocks: *syncClocks, Steal: *steal, Runs: *runs}
	switch *sweep {
	case "tile":
	case "nodes":
		s.Kind, s.Nodes, s.MT = expd.KindNodes, 0, false
	case "":
		s.Tiles = []int{*nb}
	default:
		fmt.Fprintf(os.Stderr, "hicma: unknown -sweep %q (want \"tile\", \"nodes\" or empty)\n", *sweep)
		os.Exit(2)
	}
	canon, err := s.Canonical()
	if err != nil {
		log.Fatalf("hicma: %v", err)
	}

	// Evaluate the spec's points, consulting the shared cache when -cache
	// is set.
	var cache *expd.Cache
	if *cacheDir != "" {
		if cache, err = expd.OpenCache(*cacheDir); err != nil {
			log.Fatalf("hicma: %v", err)
		}
	}
	results, err := expd.EvalPoints(context.Background(), *j, canon.Points(), cache, expd.EvalHooks{})
	if err != nil {
		log.Fatalf("hicma: %v", err)
	}

	if *sweep != "" {
		fmt.Printf("problem: N=%d (scale %.2f), tiles %v\n\n", canon.N, *scale, canon.Tiles)
		figs, err := expd.HiCMAFigures(canon, results)
		if err != nil {
			log.Fatalf("hicma: %v", err)
		}
		for _, f := range figs {
			f.Table.Write(os.Stdout)
		}
		return
	}

	// One configuration. Points: LCI then MPI, each with its MT variant
	// after the plain run when -mt is set; the report uses the MT pair then.
	lci, mpi := *results[0].HiCMA, *results[1].HiCMA
	if *mt {
		lci, mpi = *results[1].HiCMA, *results[3].HiCMA
	}
	fmt.Printf("problem: N=%d (scale %.2f)\n", canon.N, *scale)
	fmt.Printf("nb=%d nodes=%d mt=%v\n", *nb, *nodes, *mt)
	fmt.Printf("  LCI:      %.3f s, e2e %.2f ms, hop %.2f ms (%d tasks, avg rank %.2f)\n",
		lci.TimeToSolution, lci.E2ELatencyMS, lci.HopLatencyMS, lci.Tasks, lci.AvgRank)
	fmt.Printf("  Open MPI: %.3f s, e2e %.2f ms, hop %.2f ms\n",
		mpi.TimeToSolution, mpi.E2ELatencyMS, mpi.HopLatencyMS)
	fmt.Printf("  speedup:  %.3f\n", mpi.TimeToSolution/lci.TimeToSolution)
}
