// Command experiments regenerates the tables and figures of the paper's
// evaluation and prints them as aligned text tables (or markdown with -md).
// Every table comes from an internal/expd spec (spec → points → cache →
// table), one kind per sweep:
//
//	pingpong  Fig 2a/2b  ping-pong bandwidth vs granularity (+ NetPIPE), 1 and 2 streams
//	overlap   Fig 3      computation/communication overlap (+ Roofline, No Overlap)
//	tile      Fig 4a/4b  HiCMA time-to-solution and latency vs tile size (± multithreading)
//	nodes     Fig 5a/5b  HiCMA strong scaling, 1..32 nodes, and Table 2
//	chaos                task graphs under faults, or the crash-recovery proof
//
// -spec takes one spec (a JSON object) or a list (a JSON array). Without
// it the command runs paper.json, the whole evaluation with the paper's
// protocols (about 20 minutes at -j 2, estimated from quick.json's times
// scaled by the run counts, not measured); quick.json is the same list with
// cheap ones:
//
//	experiments -spec "$(cat cmd/experiments/quick.json)" -j 2
//
// A list prints its specs' figure tables in order, the HiCMA problem line
// before a tile spec's and the headline after a nodes spec's. Its points run
// as one sweep, so -j and -cache cover all of it, and every spec is
// validated before any point runs. A lone figure spec prints the spec, its
// figure tables (with a tile spec's "mt", the §6.4.3 table too) and its
// per-point table (expd.AssembleTable):
//
//	experiments -spec '{"kind":"tile","scale":0.1,"mt":true}'
//	experiments -spec '{"kind":"nodes","scale":0.5,"runs":1}' -j 0
//
// -csv DIR writes every printed table as a CSV file. On a lone tile spec of
// one tile without mt it also writes each point's metric registry, and on a
// chaos rate spec each faulted run's (a crash spec writes its summary):
//
//	experiments -spec '{"kind":"tile","n":9600,"nodes":4,"tiles":[1200]}' -csv results
//	experiments -spec '{"kind":"chaos","crashes":["1@40%","2@3ms"]}'
//
// -trace FILE on a one-point tile spec (one backend, one tile, mt off)
// writes a Chrome trace (chrome://tracing, ui.perfetto.dev) of the point's
// first run instead. -cache DIR consults and fills a content-addressed
// result cache, so a re-run reuses every point already simulated.
// -list-config prints the simulated platform and comes alone.
package main

import (
	"bytes"
	"context"
	_ "embed"
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
	"amtlci/internal/metrics"
)

// paperJSON is the whole evaluation with the paper's protocols, run when
// no -spec is given.
//
//go:embed paper.json
var paperJSON []byte

func main() {
	md := flag.Bool("md", false, "emit markdown tables")
	listConfig := flag.Bool("list-config", false, "print the simulated platform configuration (Table 1 analogue) and exit")
	j := flag.Int("j", 1, "parallel sweep workers (0 = one per CPU); tables and CSVs are byte-identical for every value")
	csvDir := flag.String("csv", "", "also write each table as a CSV file into this directory")
	specJSON := flag.String("spec", "", "an experiment spec (JSON object) or a list of specs (JSON array) to evaluate instead of the whole evaluation (paper.json)")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (a re-run reuses every cached point)")
	traceFile := flag.String("trace", "", "with a one-point tile -spec, write a Chrome trace of the point's first run to this file instead")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	specs, list, err := checkFlags(*specJSON, set)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	if *listConfig {
		printConfig(os.Stdout)
		return
	}
	if *csvDir != "" {
		exitOn(os.MkdirAll(*csvDir, 0o755))
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
		if *csvDir != "" {
			writeCSV(*csvDir, name, t)
		}
	}
	var cache *expd.Cache
	if *cacheDir != "" {
		cache, err = expd.OpenCache(*cacheDir)
		exitOn(err)
	}
	if list {
		runList(specs, *j, cache, emit)
		return
	}
	spec := specs[0]
	if spec.Kind == expd.KindChaos {
		os.Exit(runChaos(spec, *j, cache, *csvDir))
	}
	canon, err := json.Marshal(spec)
	exitOn(err)
	fmt.Printf("spec: %s\n\n", canon)
	pts := spec.Points()
	if *traceFile != "" {
		exitOn(writeTrace(*traceFile, pts[0]))
		return
	}
	// A one-tile HiCMA spec's points also hand back their registries.
	var hooks expd.EvalHooks
	metricsPaths := make([]string, len(pts))
	if *csvDir != "" && spec.Kind == expd.KindTile && len(spec.Tiles) == 1 && !spec.MT {
		hooks.Registry = func(i, _ int, reg *metrics.Registry) {
			p := pts[i]
			title := fmt.Sprintf("HiCMA N=%d nb=%d, %d nodes, %s backend", p.N, p.NB, p.Nodes, p.Backend)
			metricsPaths[i] = writeCSV(*csvDir, "experiments-metrics-"+p.Backend, bench.MetricsTable(reg, title))
		}
	}
	results, err := expd.EvalPoints(context.Background(), *j, pts, cache, hooks)
	exitOn(err)
	figs, err := expd.Figures(spec, results)
	exitOn(err)
	for _, f := range figs {
		emit(f.Name, f.Table)
	}
	t, err := expd.AssembleTable(spec, pts, results)
	exitOn(err)
	emit("points", t)
	for _, path := range metricsPaths {
		if path != "" {
			fmt.Println("metrics -> " + path)
		}
	}
}

// runList evaluates a spec list as one sweep and emits its figure tables
// in list order: the HiCMA problem line before a tile spec's, the §6.4.3
// multithreading table left out, and the headline after a nodes spec's. A
// point that several specs share (the tile and nodes sweeps meet at 16
// nodes) is simulated once.
func runList(specs []expd.Spec, workers int, cache *expd.Cache, emit func(string, *bench.Table)) {
	start := time.Now()
	var uniq []expd.Point
	var at []int             // at[k] is the index in uniq of the list's k-th point
	slot := map[string]int{} // point hash -> index in uniq
	for _, s := range specs {
		for _, p := range s.Points() {
			k, ok := slot[p.Hash()]
			if !ok {
				k = len(uniq)
				slot[p.Hash()] = k
				uniq = append(uniq, p)
			}
			at = append(at, k)
		}
	}
	evaluated, err := expd.EvalPoints(context.Background(), workers, uniq, cache, expd.EvalHooks{})
	exitOn(err)
	for _, s := range specs {
		rs := make([]expd.PointResult, len(s.Points()))
		for i := range rs {
			rs[i] = evaluated[at[i]]
		}
		at = at[len(rs):]
		if s.Kind == expd.KindTile {
			fmt.Printf("HiCMA problem: N=%d (scale %.2f)\n\n", s.N, float64(s.N)/360000)
		}
		figs, err := expd.Figures(s, rs)
		exitOn(err)
		for _, f := range figs {
			if f.Name != expd.FigMTTime {
				emit(f.Name, f.Table)
			}
		}
		if s.Kind == expd.KindNodes {
			headline(s, rs)
		}
	}
	// Host wall time goes to stderr: stdout is a pure function of virtual
	// time, so results/experiments_full.txt regenerates byte-identically.
	fmt.Fprintf(os.Stderr, "\ntotal wall time: %v\n", time.Since(start).Round(time.Second))
}

// headline prints the §6.4.3/§7 summary of a nodes sweep at 16 nodes: LCI's
// best time-to-solution against Open MPI's, and the end-to-end latency cut
// at LCI's tile.
func headline(s expd.Spec, results []expd.PointResult) {
	points, err := expd.StrongScalingFrom(s, results)
	exitOn(err)
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
}

// exitOn reports a non-nil err and exits 1.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// writeCSV writes t as dir/name.csv and returns the file's path.
func writeCSV(dir, name string, t *bench.Table) string {
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	exitOn(err)
	t.CSV(f)
	exitOn(f.Close())
	return path
}

// checkFlags rejects, before any simulation starts, what would otherwise
// fail or be silently ignored minutes into a run, and returns the specs to
// evaluate and whether they came as a list. set names the flags given on
// the command line. -list-config comes alone. -spec is one spec (a JSON
// object) or a list (a JSON array), and defaults to paper.json's list;
// every spec of a list is decoded and checked before any runs. A figure
// spec must cover both backends (the figures compare LCI with Open MPI). A
// list holds figure specs only; a chaos spec comes alone and prints no
// markdown. -trace needs a tile spec of exactly one point and refuses the
// output and evaluation flags it would ignore.
func checkFlags(specJSON string, set map[string]bool) ([]expd.Spec, bool, error) {
	if set["list-config"] {
		for _, f := range []string{"md", "j", "csv", "spec", "cache", "trace"} {
			if set[f] {
				return nil, false, fmt.Errorf("-%s does not combine with -list-config", f)
			}
		}
		return nil, false, nil
	}
	raw := []byte(specJSON)
	if !set["spec"] {
		raw = paperJSON
	}
	if bytes.HasPrefix(bytes.TrimSpace(raw), []byte("[")) {
		if set["trace"] {
			return nil, false, fmt.Errorf("-trace needs a one-point tile -spec, not a list")
		}
		specs, err := expd.DecodeSpecList(raw)
		if err != nil {
			return nil, false, fmt.Errorf("-spec: %w", err)
		}
		for i, s := range specs {
			if err := checkFigureSpec(s); err != nil {
				return nil, false, fmt.Errorf("-spec: spec %d: %w", i, err)
			}
		}
		return specs, true, nil
	}
	s, err := expd.DecodeSpec(raw)
	switch {
	case err != nil:
		return nil, false, fmt.Errorf("-spec: %w", err)
	case set["trace"]:
		if s.Kind != expd.KindTile || len(s.Points()) != 1 {
			return nil, false, fmt.Errorf("-trace needs a tile spec of one point (one backend, one tile, mt off), got %d %s points", len(s.Points()), s.Kind)
		}
		for _, f := range []string{"md", "j", "csv", "cache"} {
			if set[f] {
				return nil, false, fmt.Errorf("-%s does not combine with -trace", f)
			}
		}
	case s.Kind == expd.KindChaos:
		if set["md"] {
			return nil, false, fmt.Errorf("-md does not combine with a chaos spec")
		}
	default:
		if err := checkFigureSpec(s); err != nil {
			return nil, false, fmt.Errorf("-spec: %w", err)
		}
	}
	return []expd.Spec{s}, false, nil
}

// checkFigureSpec refuses what expd.Figures cannot render: a chaos spec,
// and a spec of one backend.
func checkFigureSpec(s expd.Spec) error {
	switch {
	case s.Kind == expd.KindChaos:
		return fmt.Errorf("a chaos spec comes alone, not in a list")
	case len(s.Backends) != 2:
		return fmt.Errorf("the %s figures need both backends, got %v", s.Kind, s.Backends)
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
