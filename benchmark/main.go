// Command benchmark is this repository's benchmark: six workloads, seven
// end-to-end metrics reported by each, and a traced run that yields per-layer
// numbers for every layer from sim up to HiCMA by timing and counting calls
// into the layers' public functions from outside. BENCHMARK.json at the
// repository root names the workloads and metrics and fixes the regression
// bounds; README.md in this directory documents them.
//
//	go run -C benchmark amtlci/benchmark -workload hicma_strong -seed 3 -seconds 10 -trace 0
//	go run -C benchmark amtlci/benchmark                    # every workload, end-to-end metrics
//	go run -C benchmark amtlci/benchmark -trace 1           # every workload, per-layer metrics
//	go run -C benchmark amtlci/benchmark -selfcheck         # two sets back to back, compared against the bounds
//
// The last line a workload prints on standard output is one JSON object:
// {"correct":..., "attempted":..., "failed":..., "metrics":{name:{"value":...,"unit":...}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process exit, so bench_test.go can drive the
// command in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all six)")
	seed := fs.Uint64("seed", 3, "the only input: every stack, runtime and fault seed derives from it")
	seconds := fs.Float64("seconds", 10, "measure timed reps for at least this long (at least 3 reps)")
	reps := fs.Int("reps", 0, "run exactly this many timed reps instead of filling -seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	selfcheck := fs.Bool("selfcheck", false, "run two untraced sets and compare them against the bounds in BENCHMARK.json")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the measured workloads to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *reps < 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}

	tmp, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	o := options{seed: *seed, seconds: *seconds, reps: *reps, tmp: tmp}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			if err := writeHeapProfile(*memprofile); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
			}
		}()
	}

	if *selfcheck {
		return selfCheck(selected, o, stdout, stderr)
	}
	code := 0
	for _, r := range runSet(selected, o, *trace == 1, stdout) {
		if !r.correct() {
			code = 1
		}
	}
	return code
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSet measures each workload in turn, printing its human-readable block
// and then its JSON line. Memory is returned to the OS between workloads so
// one workload's heap does not shape the next one's GC pacing.
func runSet(ws []workload, o options, traced bool, out io.Writer) []result {
	var results []result
	var rungs map[string]float64
	var ladderErr error
	if traced {
		rungs, ladderErr = ladder(o.smoke)
	}
	for _, w := range ws {
		runtime.GC()
		debug.FreeOSMemory()
		var r result
		if traced {
			r = measureTraced(w, o, rungs, ladderErr)
		} else {
			r = measureUntraced(w, o)
		}
		r.report(out)
		fmt.Fprintln(out, r.json())
		results = append(results, r)
	}
	return results
}

// json renders the driver's result line. A metric that could not be computed
// is reported as 0 rather than breaking the encoding.
func (r *result) json() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]mv, len(r.defs))}
	for _, d := range r.defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[d.name] = mv{v, d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil { // unreachable: every value is a finite float or a string
		panic(err)
	}
	return string(b)
}

// benchmarkFile is the part of BENCHMARK.json the command reads.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// loadBenchmarkFile finds BENCHMARK.json from the repository root or from
// this directory (go run -C benchmark, go test).
func loadBenchmarkFile() (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

// selfCheck runs two full untraced sets back to back and prints, per
// workload and end-to-end metric, both values, their relative difference and
// the bound. Simulated metrics must be bit-equal; host metrics must agree
// within the bound in either direction, or within the metric's resolution.
func selfCheck(ws []workload, o options, stdout, stderr io.Writer) int {
	bf, err := loadBenchmarkFile()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	bound := make(map[string]float64)
	for _, m := range bf.EndToEnd {
		bound[m.Name] = m.Bound
	}
	a := runSet(ws, o, false, io.Discard)
	b := runSet(ws, o, false, io.Discard)
	code := 0
	fmt.Fprintf(stdout, "%-20s %-22s %16s %16s %9s %7s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	for i := range a {
		if !a[i].correct() || !b[i].correct() {
			fmt.Fprintf(stdout, "%-20s operations failed: %v %v\n", a[i].workload, a[i].notes, b[i].notes)
			code = 1
		}
		for _, d := range endToEnd {
			x, y := a[i].metrics[d.name], b[i].metrics[d.name]
			diff := ratio(y-x, x)
			limit := bound[d.name]
			if d.exact {
				limit = 0
			}
			verdict := ""
			if math.Abs(diff) > limit && math.Abs(y-x) > d.resolution {
				verdict = "  EXCEEDED"
				code = 1
			}
			fmt.Fprintf(stdout, "%-20s %-22s %16.6g %16.6g %+8.3f%% %6.1f%%%s\n",
				a[i].workload, d.name, x, y, diff*100, limit*100, verdict)
		}
	}
	return code
}
