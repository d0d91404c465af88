// Command experiments regenerates every table and figure of the paper's
// evaluation in one run and prints them as aligned text tables (or markdown
// with -md), in the order of Section 6:
//
//	Fig 2a  one-stream ping-pong bandwidth vs granularity (+ NetPIPE)
//	Fig 2b  two-stream bandwidth, synced and no-sync
//	Fig 3   computation/communication overlap (+ Roofline, No Overlap)
//	Fig 4a  HiCMA time-to-solution vs tile size (16 nodes)
//	Fig 4b  HiCMA end-to-end latency vs tile size (± multithreading)
//	Fig 5a  HiCMA strong scaling, 1..32 nodes
//	Fig 5b  strong-scaling latency
//	Table 2 best tile size per node count
//
// -scale shrinks the HiCMA problem; -quick uses a cheap measurement
// protocol. With the defaults (scale 1, paper protocols) a full regeneration
// takes several hours of CPU; -scale 0.5 -quick finishes in minutes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"amtlci/internal/bench"
	"amtlci/internal/core/stack"
	"amtlci/internal/fabric"
	"amtlci/internal/hicma"
	"amtlci/internal/netpipe"
	"amtlci/internal/parsec"
	"amtlci/internal/stats"
)

func main() {
	scale := flag.Float64("scale", 1.0, "HiCMA problem scale factor in (0,1]")
	fig5Scale := flag.Float64("fig5-scale", 0, "separate scale for the strong-scaling sweep (0 = same as -scale); the 6x9x2-run Fig 5 grid is by far the most expensive experiment")
	quick := flag.Bool("quick", false, "cheap measurement protocol everywhere")
	md := flag.Bool("md", false, "emit markdown tables")
	runsMicro := flag.Int("micro-runs", 18, "microbenchmark executions per point (discard 3)")
	runsHicma := flag.Int("hicma-runs", 5, "HiCMA executions per configuration")
	listConfig := flag.Bool("list-config", false, "print the simulated platform configuration (Table 1 analogue) and exit")
	metricsDir := flag.String("metrics", "", "run one instrumented HiCMA point per backend and dump its metric registry as CSV into this directory, then exit")
	j := flag.Int("j", 1, "parallel sweep workers (0 = one per CPU); tables and CSVs are byte-identical for every value")
	steal := flag.Bool("steal", false, "enable inter-rank work stealing in the HiCMA tile sweep (Figs 4a/4b)")
	shards := flag.Int("shards", 1, "simulation shards per HiCMA point (>1 uses that many cores per simulation; results identical)")
	csvDir := flag.String("csv", "", "also write each table as a CSV file into this directory")
	flag.Parse()
	if err := checkFlags(*scale, *fig5Scale, *runsMicro, *runsHicma); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	// Each sweep sizes its worker count against its own point grid, so -j 0
	// never provisions more workers than a sweep has points.
	workers := func(n int) int { return bench.SweepWorkers(*j, n) }

	if *listConfig {
		printConfig(os.Stdout)
		return
	}
	if *metricsDir != "" {
		if err := dumpMetrics(*metricsDir); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}

	micro := stats.Methodology{Runs: *runsMicro, Discard: 3}
	hicma := stats.Methodology{Runs: *runsHicma, Discard: 0}
	if *quick {
		micro = stats.Methodology{Runs: 2, Discard: 1}
		hicma = stats.Methodology{Runs: 1, Discard: 0}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	// emit prints the table and, with -csv, writes it as <name>.csv. The
	// tables are assembled in sweep order after the points complete, so the
	// files do not depend on -j.
	emit := func(name string, t *bench.Table) {
		if *md {
			t.Markdown(os.Stdout)
		} else {
			t.Write(os.Stdout)
		}
		if *csvDir == "" {
			return
		}
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		t.CSV(f)
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	start := time.Now()

	// ---- Figure 2a ----
	fig2a := bench.NewTable("Fig 2a: one-stream ping-pong bandwidth (Gbit/s)",
		"granularity", "LCI", "Open MPI", "NetPIPE")
	ppSizes := bench.PingPongSizes()
	fig2aRows := bench.Sweep(workers(len(ppSizes)), len(ppSizes), func(i int) [3]float64 {
		var v [3]float64
		for bi, b := range []stack.Backend{stack.LCI, stack.MPI} {
			o := bench.DefaultPingPongOpts(b, ppSizes[i])
			o.Runs = micro
			v[bi] = bench.PingPong(o).Gbps
		}
		v[2] = netpipe.Bandwidth(netpipe.DefaultConfig(), ppSizes[i])
		return v
	})
	for i, size := range ppSizes {
		v := fig2aRows[i]
		fig2a.AddFloats(bench.Bytes(size), "%.1f", v[0], v[1], v[2])
	}
	emit("fig2a", fig2a)

	// ---- Figure 2b ----
	fig2b := bench.NewTable("Fig 2b: two-stream ping-pong bandwidth (Gbit/s)",
		"granularity", "LCI", "Open MPI", "LCI (no sync)", "Open MPI (no sync)")
	fig2bRows := bench.Sweep(workers(len(ppSizes)), len(ppSizes), func(i int) [4]float64 {
		var v [4]float64
		k := 0
		for _, sync := range []bool{true, false} {
			for _, b := range []stack.Backend{stack.LCI, stack.MPI} {
				o := bench.DefaultPingPongOpts(b, ppSizes[i])
				o.Streams = 2
				o.Sync = sync
				o.Runs = micro
				v[k] = bench.PingPong(o).Gbps
				k++
			}
		}
		return v
	})
	for i, size := range ppSizes {
		v := fig2bRows[i]
		fig2b.AddFloats(bench.Bytes(size), "%.1f", v[0], v[1], v[2], v[3])
	}
	emit("fig2b", fig2b)

	// ---- Figure 3 ----
	fig3 := bench.NewTable("Fig 3: overlap with GEMM-like intensity (GFLOP/s)",
		"granularity", "LCI", "Open MPI", "Roofline", "No Overlap")
	ovSizes := bench.OverlapSizes()
	fig3Rows := bench.Sweep(workers(len(ovSizes)), len(ovSizes), func(i int) [4]float64 {
		var v [4]float64
		for bi, b := range []stack.Backend{stack.LCI, stack.MPI} {
			o := bench.DefaultOverlapOpts(b, ovSizes[i])
			o.Runs = micro
			r := bench.Overlap(o)
			v[bi] = r.GFLOPS
			v[2], v[3] = r.Roofline, r.NoOverlap
		}
		return v
	})
	for i, size := range ovSizes {
		v := fig3Rows[i]
		fig3.AddFloats(bench.Bytes(size), "%.0f", v[0], v[1], v[2], v[3])
	}
	emit("fig3", fig3)

	// ---- Figures 4a/4b ----
	n, tiles := bench.ScaledProblem(*scale, bench.PaperTileSizes)
	fmt.Printf("HiCMA problem: N=%d (scale %.2f)\n\n", n, *scale)
	fig4a := bench.NewTable("Fig 4a: TLR Cholesky time-to-solution, 16 nodes (s)",
		"tile", "LCI", "Open MPI")
	fig4b := bench.NewTable("Fig 4b: end-to-end latency, 16 nodes (ms)",
		"tile", "LCI", "Open MPI", "LCI (MT)", "Open MPI (MT)")
	type key struct {
		b  stack.Backend
		mt bool
	}
	ttsAtTile := map[int]map[key]float64{}
	fig4Rows := bench.Sweep(workers(len(tiles)), len(tiles), func(i int) map[key]bench.HiCMAResult {
		res := map[key]bench.HiCMAResult{}
		for _, b := range []stack.Backend{stack.LCI, stack.MPI} {
			for _, mt := range []bool{false, true} {
				o := bench.DefaultHiCMAOpts(b, tiles[i], 16)
				o.N = n
				o.MT = mt
				o.Steal = *steal
				o.Shards = *shards
				o.Runs = hicma
				res[key{b, mt}] = bench.HiCMA(o)
			}
		}
		return res
	})
	for i, t := range tiles {
		res := fig4Rows[i]
		ttsAtTile[t] = map[key]float64{}
		for k, r := range res {
			ttsAtTile[t][k] = r.TimeToSolution
		}
		fig4a.AddFloats(fmt.Sprint(t), "%.2f",
			res[key{stack.LCI, false}].TimeToSolution, res[key{stack.MPI, false}].TimeToSolution)
		fig4b.AddFloats(fmt.Sprint(t), "%.2f",
			res[key{stack.LCI, false}].E2ELatencyMS, res[key{stack.MPI, false}].E2ELatencyMS,
			res[key{stack.LCI, true}].E2ELatencyMS, res[key{stack.MPI, true}].E2ELatencyMS)
	}
	emit("fig4a", fig4a)
	emit("fig4b", fig4b)

	// ---- Figures 5a/5b and Table 2 ----
	n5, tiles5 := n, tiles
	if *fig5Scale > 0 {
		n5, tiles5 = bench.ScaledProblem(*fig5Scale, bench.PaperTileSizes)
		fmt.Printf("strong-scaling problem: N=%d (scale %.2f)\n\n", n5, *fig5Scale)
	}
	points := bench.StrongScaling(n5, bench.PaperNodeCounts, tiles5, hicma,
		workers(2*len(bench.PaperNodeCounts)*len(tiles5)), *shards)
	fig5a := bench.NewTable("Fig 5a: strong scaling (s)", "nodes", "LCI", "Open MPI", "Open MPI (best)")
	fig5b := bench.NewTable("Fig 5b: strong-scaling latency (ms)", "nodes", "LCI", "Open MPI", "Open MPI (best)")
	tbl2 := bench.NewTable("Table 2: tile size with lowest time-to-solution", "nodes", "Open MPI", "LCI")
	for _, p := range points {
		fig5a.AddFloats(fmt.Sprint(p.Nodes), "%.2f",
			p.LCI.TimeToSolution, p.MPIAtLCI.TimeToSolution, p.MPIBest.TimeToSolution)
		fig5b.AddFloats(fmt.Sprint(p.Nodes), "%.2f",
			p.LCI.E2ELatencyMS, p.MPIAtLCI.E2ELatencyMS, p.MPIBest.E2ELatencyMS)
		tbl2.AddRow(fmt.Sprint(p.Nodes), fmt.Sprint(p.MPIBestTile), fmt.Sprint(p.LCITile))
	}
	emit("fig5a", fig5a)
	emit("fig5b", fig5b)
	emit("table2", tbl2)

	// ---- headline summary (§6.4.3, §7) ----
	for _, p := range points {
		if p.Nodes != 16 {
			continue
		}
		speedup := p.MPIBest.TimeToSolution/p.LCI.TimeToSolution - 1
		latCut := 1 - p.LCI.E2ELatencyMS/p.MPIAtLCI.E2ELatencyMS
		fmt.Printf("headline @16 nodes: LCI best %.2fs (nb=%d) vs MPI best %.2fs (nb=%d): %.1f%% faster; e2e latency %.1f%% lower at LCI's tile\n",
			p.LCI.TimeToSolution, p.LCITile, p.MPIBest.TimeToSolution, p.MPIBestTile,
			speedup*100, latCut*100)
	}
	// Host wall time goes to stderr: stdout is a pure function of virtual
	// time, so results/experiments_full.txt regenerates byte-identically.
	fmt.Fprintf(os.Stderr, "\ntotal wall time: %v\n", time.Since(start).Round(time.Second))
}

// checkFlags rejects the flag values that would otherwise panic only once
// the sweeps reach them, minutes into a run: a scale outside (0,1] (0 is
// allowed for -fig5-scale, where it means "same as -scale") and run counts
// that leave no measured run after the discarded ones.
func checkFlags(scale, fig5Scale float64, microRuns, hicmaRuns int) error {
	switch {
	case !(scale > 0 && scale <= 1):
		return fmt.Errorf("-scale %v outside (0,1]", scale)
	case fig5Scale != 0 && !(fig5Scale > 0 && fig5Scale <= 1):
		return fmt.Errorf("-fig5-scale %v outside (0,1]", fig5Scale)
	case microRuns <= 3:
		return fmt.Errorf("-micro-runs %d must exceed the 3 discarded runs", microRuns)
	case hicmaRuns < 1:
		return fmt.Errorf("-hicma-runs %d must be at least 1", hicmaRuns)
	}
	return nil
}

// dumpMetrics runs one small instrumented HiCMA execution per backend (4
// nodes, virtual tiles) and writes every layer's end-of-run instrument state
// as CSV — the always-on counters the sweeps above aggregate away.
func dumpMetrics(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, b := range stack.Backends {
		be := "mpi"
		if b == stack.LCI {
			be = "lci"
		}
		pool := hicma.NewVirtual(hicma.DefaultParams(9600, 1200), 4)
		s := stack.New(b, 4)
		cfg := parsec.DefaultConfig(16)
		cfg.Metrics = s.Metrics
		rt := parsec.New(s.Eng, s.Engines, pool, cfg)
		elapsed, err := rt.Run()
		if err != nil {
			return fmt.Errorf("%v instrumented run: %w", b, err)
		}
		path := filepath.Join(dir, fmt.Sprintf("experiments-metrics-%s.csv", be))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("HiCMA N=9600 nb=1200, 4 nodes, %v backend", b)
		bench.MetricsTable(s.Metrics, title).CSV(f)
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("%v backend: %v virtual time, %d instruments -> %s\n",
			b, elapsed, s.Metrics.Len(), path)
	}
	return nil
}

// printConfig emits the simulated platform parameters, the analogue of the
// paper's Table 1.
func printConfig(w io.Writer) {
	fc := fabric.DefaultConfig()
	fmt.Fprintln(w, "Simulated platform configuration (Table 1 analogue)")
	fmt.Fprintf(w, "  Network     : %g Gbit/s per direction, %v latency, ctl-bypass <= %s\n",
		fc.BandwidthGbps, fc.Latency, bench.Bytes(fc.CtlBypass))
	fmt.Fprintf(w, "  Cores/node  : 128 (127 workers with MPI, 126 with LCI, §6.1.2)\n")
	fmt.Fprintf(w, "  MPI model   : eager <= 8 KiB, rendezvous with registration costs, Testsome polling\n")
	fmt.Fprintf(w, "  LCI model   : immediate <= 64 B, buffered <= 12 KiB, direct RDMA; dedicated progress thread\n")
}
