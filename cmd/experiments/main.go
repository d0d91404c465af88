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
// rendered by expd (spec → points → cache → table).
//
// -scale shrinks the HiCMA problem; -quick uses a cheap measurement
// protocol. With the defaults (scale 1, paper protocols) a full regeneration
// takes several hours of CPU; -quick finishes in minutes (about 4 at -j 2
// on 2 cores).
//
// -spec JSON runs one experiment (expd.Spec) instead. A tile or nodes spec
// prints the spec's figure tables — with "mt", the §6.4.3 multithreading
// table too — and then its per-point table (expd.AssembleTable):
//
//	experiments -spec '{"kind":"tile","scale":0.1,"mt":true}'        Fig 4a/4b + §6.4.3
//	experiments -spec '{"kind":"nodes","scale":0.5,"runs":1}' -j 0    Fig 5a/5b + Table 2
//	experiments -spec '{"kind":"tile","tiles":[2400],"steal":true}'  one tile, with stealing
//
// A chaos spec runs the real task graphs over a fault-injected fabric with
// the reliability layer interposed, verifies the numerics, and prints the
// seed and one line per (backend, workload, fault rate); with crashes or
// storm, the crash-recovery proof per (backend, workload). -csv DIR writes
// each faulted run's registry, or the crash summary CSV:
//
//	experiments -spec '{"kind":"chaos","crashes":["1@40%","2@3ms"]}'  crash cascade
//
// -trace FILE on a one-point tile spec (one backend, one tile, mt off)
// writes a Chrome trace (chrome://tracing, ui.perfetto.dev) of the point's
// first run instead.
//
// -cache DIR consults and fills a content-addressed result cache for every
// sweep the command runs, so a re-run or an overlapping spec reuses every
// point already simulated.
//
// -list-config and -metrics DIR run no evaluation: each does its one job
// and exits, so each comes alone.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"amtlci/internal/bench"
	"amtlci/internal/core/stack"
	"amtlci/internal/ctrace"
	"amtlci/internal/expd"
	"amtlci/internal/fabric"
	"amtlci/internal/hicma"
	"amtlci/internal/netpipe"
	"amtlci/internal/parsec"
	"amtlci/internal/stats"
)

func main() {
	scale := flag.Float64("scale", 1.0, "HiCMA problem scale factor in (0,1]")
	quick := flag.Bool("quick", false, "cheap measurement protocol everywhere")
	md := flag.Bool("md", false, "emit markdown tables")
	runsMicro := flag.Int("micro-runs", 18, "microbenchmark executions per point (discard 3)")
	runsHicma := flag.Int("hicma-runs", 5, "HiCMA executions per configuration")
	listConfig := flag.Bool("list-config", false, "print the simulated platform configuration (Table 1 analogue) and exit")
	metricsDir := flag.String("metrics", "", "run one instrumented HiCMA point per backend and dump its metric registry as CSV into this directory, then exit")
	j := flag.Int("j", 1, "parallel sweep workers (0 = one per CPU); tables and CSVs are byte-identical for every value")
	csvDir := flag.String("csv", "", "also write each table as a CSV file into this directory")
	specJSON := flag.String("spec", "", `evaluate one "tile", "nodes" or "chaos" experiment spec (JSON) and print its tables instead of the whole evaluation`)
	cacheDir := flag.String("cache", "", "content-addressed result cache directory for the sweeps (a re-run reuses every cached point)")
	traceFile := flag.String("trace", "", "with a one-point tile -spec, write a Chrome trace of the point's first run to this file instead")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	spec, err := checkFlags(*scale, *runsMicro, *runsHicma, *specJSON, set)
	if err != nil {
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
	// writeCSV writes the table as <name>.csv into the -csv directory and
	// returns its path; nil without -csv.
	var writeCSV func(name string, t *bench.Table) string
	if *csvDir != "" {
		writeCSV = func(name string, t *bench.Table) string {
			path := filepath.Join(*csvDir, name+".csv")
			f, err := os.Create(path)
			exitOn(err)
			t.CSV(f)
			exitOn(f.Close())
			return path
		}
	}
	// emit prints the table and, with -csv, writes it. The tables are
	// assembled in sweep order after the points complete, so the files do
	// not depend on -j.
	emit := func(name string, t *bench.Table) {
		if *md {
			t.Markdown(os.Stdout)
		} else {
			t.Write(os.Stdout)
		}
		if writeCSV != nil {
			writeCSV(name, t)
		}
	}
	var cache *expd.Cache
	if *cacheDir != "" {
		cache, err = expd.OpenCache(*cacheDir)
		exitOn(err)
	}
	// figures evaluates a canonical HiCMA spec and emits its tables; the
	// §6.4.3 multithreading table, not a figure of the paper, only with
	// mtTable.
	figures := func(s expd.Spec, mtTable bool) []expd.PointResult {
		results, err := expd.EvalPoints(context.Background(), *j, s.Points(), cache, expd.EvalHooks{})
		exitOn(err)
		figs, err := expd.HiCMAFigures(s, results)
		exitOn(err)
		for _, f := range figs {
			if mtTable || f.Name != expd.FigMTTime {
				emit(f.Name, f.Table)
			}
		}
		return results
	}
	if spec.Kind == expd.KindChaos {
		os.Exit(runChaos(spec, *j, cache, writeCSV))
	}
	if spec.Kind != "" {
		canon, err := json.Marshal(spec)
		exitOn(err)
		fmt.Printf("spec: %s\n\n", canon)
		if *traceFile != "" {
			exitOn(writeTrace(*traceFile, spec.Points()[0]))
			return
		}
		results := figures(spec, true)
		t, err := expd.AssembleTable(spec, spec.Points(), results)
		exitOn(err)
		emit("points", t)
		return
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
	tile, err := expd.Spec{Kind: expd.KindTile, Scale: *scale, Nodes: 16, MT: true,
		Runs: hicma.Runs, Discard: hicma.Discard}.Canonical()
	exitOn(err)
	fmt.Printf("HiCMA problem: N=%d (scale %.2f)\n\n", tile.N, *scale)
	figures(tile, false)

	nodes, err := expd.Spec{Kind: expd.KindNodes, Scale: *scale,
		Runs: hicma.Runs, Discard: hicma.Discard}.Canonical()
	exitOn(err)
	points, err := expd.StrongScalingFrom(nodes, figures(nodes, false))
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

// checkFlags rejects, before any simulation starts, the flag values that
// would otherwise panic only once the sweeps reach them, minutes into a
// run: a scale outside (0,1] and run counts that leave no measured run
// after the discarded ones. set names the flags given on the command line.
// -list-config and -metrics refuse each other and the evaluation flags
// they would silently ignore. A -spec comes alone: the whole-evaluation
// flags would be silently ignored. A tile or nodes spec must cover both
// backends (the figures compare LCI with Open MPI); a chaos spec prints no
// markdown. -trace needs a tile spec of exactly one point and refuses the
// output and evaluation flags it would ignore. checkFlags returns the
// canonical -spec spec, or the zero Spec without one.
func checkFlags(scale float64, microRuns, hicmaRuns int, specJSON string, set map[string]bool) (expd.Spec, error) {
	switch {
	case !(scale > 0 && scale <= 1):
		return expd.Spec{}, fmt.Errorf("-scale %v outside (0,1]", scale)
	case microRuns <= 3:
		return expd.Spec{}, fmt.Errorf("-micro-runs %d must exceed the 3 discarded runs", microRuns)
	case hicmaRuns < 1:
		return expd.Spec{}, fmt.Errorf("-hicma-runs %d must be at least 1", hicmaRuns)
	case set["list-config"] && set["metrics"]:
		return expd.Spec{}, fmt.Errorf("-metrics does not combine with -list-config")
	}
	for _, mode := range []string{"list-config", "metrics"} {
		for _, f := range evalFlags {
			if set[mode] && set[f] {
				return expd.Spec{}, fmt.Errorf("-%s does not combine with -%s", f, mode)
			}
		}
	}
	if !set["spec"] {
		if set["trace"] {
			return expd.Spec{}, fmt.Errorf("-trace needs a one-point tile -spec")
		}
		return expd.Spec{}, nil
	}
	for _, f := range []string{"scale", "quick", "micro-runs", "hicma-runs", "metrics", "list-config"} {
		if set[f] {
			return expd.Spec{}, fmt.Errorf("-%s does not combine with -spec", f)
		}
	}
	s, err := expd.DecodeSpec([]byte(specJSON))
	switch {
	case err != nil:
		return expd.Spec{}, fmt.Errorf("-spec: %w", err)
	case set["trace"]:
		if s.Kind != expd.KindTile || len(s.Points()) != 1 {
			return expd.Spec{}, fmt.Errorf("-trace needs a tile spec of one point (one backend, one tile, mt off), got %d %s points", len(s.Points()), s.Kind)
		}
		for _, f := range []string{"md", "j", "csv", "cache"} {
			if set[f] {
				return expd.Spec{}, fmt.Errorf("-%s does not combine with -trace", f)
			}
		}
	case s.Kind == expd.KindChaos:
		if set["md"] {
			return expd.Spec{}, fmt.Errorf("-md does not combine with a chaos spec")
		}
	case len(s.Backends) != 2:
		return expd.Spec{}, fmt.Errorf("-spec: the HiCMA figures need both backends, got %v", s.Backends)
	}
	return s, nil
}

// evalFlags are the flags only an evaluation reads, which -list-config and
// -metrics would ignore.
var evalFlags = []string{"scale", "quick", "md", "micro-runs", "hicma-runs", "j", "csv", "cache"}

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

// writeTrace records the first run of HiCMA point p as a Chrome trace into
// path and prints a one-line summary.
func writeTrace(path string, p expd.Point) error {
	b, _ := stack.ParseBackend(p.Backend) // canonical points carry valid names
	tr, err := bench.HiCMATrace(p.HiCMAOpts(b))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := ctrace.Write(&buf, tr.Events); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("%v backend: %v virtual time, %d events (%d counter samples) -> %s\n",
		b, tr.Elapsed, len(tr.Events), tr.Counters, path)
	if tr.UnknownClass > 0 || tr.UnmatchedEnd > 0 {
		fmt.Fprintf(os.Stderr, "experiments: trace warning: %d task(s) with a class index outside the name table, %d TaskEnd(s) without a matching TaskStart\n",
			tr.UnknownClass, tr.UnmatchedEnd)
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
