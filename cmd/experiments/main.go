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
// -spec takes a list of specs (a JSON array) or one spec (a JSON object, a
// list of one). Without it the command runs paper.json, the whole
// evaluation with the paper's protocols (about 20 minutes at -j 2,
// estimated from quick.json's times scaled by the run counts, not
// measured); quick.json is the same list with cheap ones:
//
//	experiments -spec "$(cat cmd/experiments/quick.json)" -j 2
//
// Every spec is validated before any point runs, and the points of all of
// them run as one sweep, so -j and -cache cover all of it. Each spec then
// prints, in list order, its header line (a tile spec's HiCMA problem, a
// chaos spec's seed, which prints before any point runs), every table
// expd.Figures renders for it, with a failed chaos point or verdict on a
// line after its table, and a nodes spec's headline:
//
//	experiments -spec '{"kind":"tile","scale":0.1,"mt":true}'
//	experiments -spec '[{"kind":"chaos","crashes":["1@40%","2@3ms"]},{"kind":"nodes","scale":0.5,"runs":1}]' -j 0
//
// The command exits 1 when any point failed or any chaos verdict is not
// "verified". -csv DIR writes every printed table as a CSV file, a crash
// spec's as chaos-crash-summary.csv. It also writes the metric registry of
// each point of a one-tile tile spec without mt, and of each faulted run of
// a chaos rate spec. The first file of a name is NAME.csv and the k-th
// NAME-k.csv, so two specs of one kind in a list keep both:
//
//	experiments -spec '{"kind":"tile","n":9600,"nodes":4,"tiles":[1200]}' -csv results
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
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"amtlci/internal/bench"
	"amtlci/internal/chaos"
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
	specs, err := checkFlags(*specJSON, set)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	if *listConfig {
		printConfig(os.Stdout)
		return
	}
	if *traceFile != "" {
		exitOn(writeTrace(*traceFile, specs[0].Points()[0]))
		return
	}
	var csv *csvFiles
	if *csvDir != "" {
		exitOn(os.MkdirAll(*csvDir, 0o755))
		csv = &csvFiles{dir: *csvDir, seen: map[string]int{}}
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
		if csv != nil {
			writeCSV(csv.reserve(name), t)
		}
	}
	var cache *expd.Cache
	if *cacheDir != "" {
		cache, err = expd.OpenCache(*cacheDir)
		exitOn(err)
	}
	os.Exit(run(specs, *j, cache, csv, emit))
}

// run evaluates specs as one sweep and prints, per spec in list order, the
// HiCMA problem line before a tile spec's tables, every table expd.Figures
// renders with its failure lines, the headline after a nodes spec's and the
// registry files the spec's points wrote. A chaos spec's seed line, the
// replay handle of its points, prints before any point runs. A point that
// several specs share (the tile and nodes sweeps meet at 16 nodes) is
// simulated once, and hands its registries to the sink of every spec that
// has one. It returns the exit status: 1 when any point errored or any
// chaos verdict failed.
func run(specs []expd.Spec, workers int, cache *expd.Cache, csv *csvFiles, emit func(string, *bench.Table)) int {
	start := time.Now()
	var uniq []expd.Point
	var at []int                                    // at[k] is the index in uniq of the list's k-th point
	slot := map[string]int{}                        // point hash -> index in uniq
	sinks := map[int]func(int, *metrics.Registry){} // sinks[k] receives uniq[k]'s registries
	files := make([][]string, len(specs))           // files[i] are the registry CSVs of spec i's points
	for i, s := range specs {
		if s.Kind == expd.KindChaos {
			seed := s.Seed
			if seed == 0 {
				seed = chaos.DefaultSeed
			}
			fmt.Printf("seed %#x\n", seed)
		}
		for _, p := range s.Points() {
			k, ok := slot[p.Hash()]
			if !ok {
				k = len(uniq)
				slot[p.Hash()] = k
				uniq = append(uniq, p)
			}
			at = append(at, k)
			if sink, paths := registrySink(s, p, csv); sink != nil {
				if prev := sinks[k]; prev != nil {
					sinks[k] = func(row int, reg *metrics.Registry) { prev(row, reg); sink(row, reg) }
				} else {
					sinks[k] = sink
				}
				files[i] = append(files[i], paths...)
			}
		}
	}
	// Each point's error arrives through Done, so a failed point is
	// reported by its spec; EvalPoints' own error is the first of those.
	errs := make([]error, len(uniq))
	evaluated, _ := expd.EvalPoints(context.Background(), workers, uniq, cache, expd.EvalHooks{
		Done:     func(k int, _ expd.PointResult, _ bool, err error, _ time.Duration) { errs[k] = err },
		Registry: func(k int) func(int, *metrics.Registry) { return sinks[k] },
	})
	failed := false
	for i, s := range specs {
		n := len(s.Points())
		rs, es := make([]expd.PointResult, n), make([]error, n)
		for j := range rs {
			rs[j], es[j] = evaluated[at[j]], errs[at[j]]
		}
		at = at[n:]
		if s.Kind == expd.KindTile {
			fmt.Printf("HiCMA problem: N=%d (scale %.2f)\n\n", s.N, float64(s.N)/360000)
		}
		figs, err := expd.Figures(s, rs, es)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: spec %d: %v\n", i, err)
			failed = true
			continue
		}
		for _, f := range figs {
			emit(f.Name, f.Table)
			for _, line := range f.Failures {
				fmt.Println(line)
			}
			failed = failed || len(f.Failures) > 0
		}
		if s.Kind == expd.KindNodes {
			headline(s, rs)
		}
		for _, path := range files[i] {
			fmt.Println("metrics -> " + path)
		}
	}
	// Host wall time goes to stderr: stdout is a pure function of virtual
	// time, so results/experiments_full.txt regenerates byte-identically.
	fmt.Fprintf(os.Stderr, "\ntotal wall time: %v\n", time.Since(start).Round(time.Second))
	if failed {
		return 1
	}
	return 0
}

// registrySink returns, with -csv, what writes the registries point p of
// spec s hands back and the files it writes, one per row: a one-tile tile
// spec without mt writes each backend's run, a chaos rate spec each fault
// rate's. Every other point hands back none (nil), and so stays servable
// from the cache.
func registrySink(s expd.Spec, p expd.Point, csv *csvFiles) (func(int, *metrics.Registry), []string) {
	var names, titles []string
	switch {
	case csv == nil:
	case s.Kind == expd.KindTile && len(s.Tiles) == 1 && !s.MT:
		names = []string{"experiments-metrics-" + p.Backend}
		titles = []string{fmt.Sprintf("HiCMA N=%d nb=%d, %d nodes, %s backend", p.N, p.NB, p.Nodes, p.Backend)}
	case s.Kind == expd.KindChaos:
		for _, rate := range p.Rates { // a crash spec sweeps none
			names = append(names, fmt.Sprintf("chaos-metrics-%s-%s-%.1fpct", p.Backend, p.Workload, rate))
			titles = append(titles, fmt.Sprintf("chaos metrics: %s %s %.1f%% faults", p.Backend, p.Workload, rate))
		}
	}
	if names == nil {
		return nil, nil
	}
	paths := make([]string, len(names))
	for i, name := range names {
		paths[i] = csv.reserve(name)
	}
	return func(row int, reg *metrics.Registry) {
		writeCSV(paths[row], bench.MetricsTable(reg, titles[row]))
	}, paths
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

// csvFiles names the CSV files of one invocation in dir: the first file of
// a name is NAME.csv and the k-th (k >= 2) NAME-k.csv, so a table or
// registry that two specs of a list write under one name keeps both.
type csvFiles struct {
	dir  string
	seen map[string]int
}

// reserve returns the path of the next file of name.
func (c *csvFiles) reserve(name string) string {
	c.seen[name]++
	if k := c.seen[name]; k > 1 {
		name = fmt.Sprintf("%s-%d", name, k)
	}
	return filepath.Join(c.dir, name+".csv")
}

// writeCSV writes t to path.
func writeCSV(path string, t *bench.Table) {
	f, err := os.Create(path)
	exitOn(err)
	t.CSV(f)
	exitOn(f.Close())
}

// checkFlags rejects, before any simulation starts, what would otherwise
// fail or be silently ignored minutes into a run, and returns the specs to
// evaluate. set names the flags given on the command line. -list-config
// comes alone. -spec is one spec (a JSON object, a list of one) or a list
// (a JSON array), and defaults to paper.json's list; every spec is decoded
// and checked before any runs. A figure spec must cover both backends (the
// figures compare LCI with Open MPI). -trace needs a lone tile spec of
// exactly one point, of either backend, and refuses the output and
// evaluation flags it would ignore.
func checkFlags(specJSON string, set map[string]bool) ([]expd.Spec, error) {
	if set["list-config"] {
		for _, f := range []string{"md", "j", "csv", "spec", "cache", "trace"} {
			if set[f] {
				return nil, fmt.Errorf("-%s does not combine with -list-config", f)
			}
		}
		return nil, nil
	}
	raw := []byte(specJSON)
	if !set["spec"] {
		raw = paperJSON
	}
	list := bytes.HasPrefix(bytes.TrimSpace(raw), []byte("["))
	var specs []expd.Spec
	var err error
	if list {
		specs, err = expd.DecodeSpecList(raw)
	} else {
		specs = make([]expd.Spec, 1)
		specs[0], err = expd.DecodeSpec(raw)
	}
	if err != nil {
		return nil, fmt.Errorf("-spec: %w", err)
	}
	if set["trace"] {
		if s := specs[0]; list || s.Kind != expd.KindTile || len(s.Points()) != 1 {
			return nil, fmt.Errorf("-trace needs a lone tile spec of one point (one backend, one tile, mt off)")
		}
		for _, f := range []string{"md", "j", "csv", "cache"} {
			if set[f] {
				return nil, fmt.Errorf("-%s does not combine with -trace", f)
			}
		}
		return specs, nil
	}
	for i, s := range specs {
		if s.Kind != expd.KindChaos && len(s.Backends) != 2 {
			return nil, fmt.Errorf("-spec: spec %d: the %s figures need both backends, got %v", i, s.Kind, s.Backends)
		}
	}
	return specs, nil
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
