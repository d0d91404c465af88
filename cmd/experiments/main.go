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
// Figures 4 and 5 are internal/expd tile and nodes specs, evaluated and
// rendered by the code cmd/hicma and the simd service use.
//
// -scale shrinks the HiCMA problem; -quick uses a cheap measurement
// protocol. With the defaults (scale 1, paper protocols) a full regeneration
// takes several hours of CPU; -scale 0.5 -quick finishes in minutes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"amtlci/internal/bench"
	"amtlci/internal/core/stack"
	"amtlci/internal/expd"
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
	csvDir := flag.String("csv", "", "also write each table as a CSV file into this directory")
	flag.Parse()
	if err := checkFlags(*scale, *fig5Scale, *runsMicro, *runsHicma); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	if *listConfig {
		printConfig(os.Stdout)
		return
	}
	if *metricsDir != "" {
		exitOn(dumpMetrics(*metricsDir))
		return
	}

	micro := stats.Methodology{Runs: *runsMicro, Discard: 3}
	hicma := stats.Methodology{Runs: *runsHicma, Discard: 0}
	if *quick {
		micro = stats.Methodology{Runs: 2, Discard: 1}
		hicma = stats.Methodology{Runs: 1, Discard: 0}
	}
	if *csvDir != "" {
		exitOn(os.MkdirAll(*csvDir, 0o755))
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
		exitOn(err)
		t.CSV(f)
		exitOn(f.Close())
	}
	start := time.Now()

	// ---- Figures 2a, 2b and 3: microbenchmarks, one row per granularity ----
	microFigure := func(name, title, format string, sizes []int64, series []string, row func(size int64) []float64) {
		t := bench.NewTable(title, append([]string{"granularity"}, series...)...)
		rows := bench.Sweep(bench.SweepWorkers(*j, len(sizes)), len(sizes), func(i int) []float64 { return row(sizes[i]) })
		for i, size := range sizes {
			t.AddFloats(bench.Bytes(size), format, rows[i]...)
		}
		emit(name, t)
	}
	pingpong := func(b stack.Backend, size int64, streams int, sync bool) float64 {
		o := bench.DefaultPingPongOpts(b, size)
		o.Streams, o.Sync, o.Runs = streams, sync, micro
		return bench.PingPong(o).Gbps
	}
	microFigure("fig2a", "Fig 2a: one-stream ping-pong bandwidth (Gbit/s)", "%.1f", bench.PingPongSizes(),
		[]string{"LCI", "Open MPI", "NetPIPE"}, func(size int64) []float64 {
			return []float64{pingpong(stack.LCI, size, 1, true), pingpong(stack.MPI, size, 1, true),
				netpipe.Bandwidth(netpipe.DefaultConfig(), size)}
		})
	microFigure("fig2b", "Fig 2b: two-stream ping-pong bandwidth (Gbit/s)", "%.1f", bench.PingPongSizes(),
		[]string{"LCI", "Open MPI", "LCI (no sync)", "Open MPI (no sync)"}, func(size int64) []float64 {
			return []float64{pingpong(stack.LCI, size, 2, true), pingpong(stack.MPI, size, 2, true),
				pingpong(stack.LCI, size, 2, false), pingpong(stack.MPI, size, 2, false)}
		})
	microFigure("fig3", "Fig 3: overlap with GEMM-like intensity (GFLOP/s)", "%.0f", bench.OverlapSizes(),
		[]string{"LCI", "Open MPI", "Roofline", "No Overlap"}, func(size int64) []float64 {
			var v []float64
			var r bench.OverlapResult
			for _, b := range stack.Backends {
				o := bench.DefaultOverlapOpts(b, size)
				o.Runs = micro
				r = bench.Overlap(o)
				v = append(v, r.GFLOPS)
			}
			return append(v, r.Roofline, r.NoOverlap) // the models at Open MPI's worker count
		})

	// ---- Figures 4a/4b, 5a/5b and Table 2 ----
	// figures evaluates a canonical HiCMA spec and emits the paper's tables
	// for it.
	figures := func(s expd.Spec) []expd.PointResult {
		results, err := expd.EvalPoints(context.Background(), *j, s.Points(), nil, expd.EvalHooks{})
		exitOn(err)
		figs, err := expd.HiCMAFigures(s, results)
		exitOn(err)
		for _, f := range figs {
			if f.Name != expd.FigMTTime { // §6.4.3's table, not a figure of the paper
				emit(f.Name, f.Table)
			}
		}
		return results
	}
	tile, err := expd.Spec{Kind: expd.KindTile, Scale: *scale, Nodes: 16, MT: true, Steal: *steal,
		Runs: hicma.Runs, Discard: hicma.Discard}.Canonical()
	exitOn(err)
	fmt.Printf("HiCMA problem: N=%d (scale %.2f)\n\n", tile.N, *scale)
	figures(tile)

	scale5 := *scale
	if *fig5Scale > 0 {
		scale5 = *fig5Scale
	}
	nodes, err := expd.Spec{Kind: expd.KindNodes, Scale: scale5,
		Runs: hicma.Runs, Discard: hicma.Discard}.Canonical()
	exitOn(err)
	if *fig5Scale > 0 {
		fmt.Printf("strong-scaling problem: N=%d (scale %.2f)\n\n", nodes.N, *fig5Scale)
	}
	points, err := expd.StrongScalingFrom(nodes, figures(nodes))
	exitOn(err)

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

// exitOn reports a non-nil err and exits 1.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
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
