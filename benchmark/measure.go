package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"amtlci/internal/stats"
)

// Measurement protocol. One process, one generator goroutine; a workload
// starts at most workerCap() worker goroutines of its own.
//
// Untraced run (end-to-end metrics): one untimed warm-up pass, then timed
// reps until -seconds have been measured (at least minReps, or exactly
// -reps). A rep's run phase divided by its task count is one
// wall_ns_per_task sample; the metric is the median over reps, and the
// allocation metrics are MemStats deltas over the timed reps. Every pass,
// warm-up included, is also timed whole — input generation, stack.Build, pool
// construction, parsec.New and the entire run: what a single cmd/hicma run
// pays — and setup_s is the median of those, so work moved out of the run
// phase into constructors still shows. With so few samples no tail
// percentile is reported; min, max and IQR are printed as spread only.
//
// Traced run (per-layer metrics): one untraced reference pass with the
// registry folded, one pass behind the boundary decorators, the serial twin
// of a sharded workload, and the layer ladder.
const minReps = 3

type options struct {
	seed    uint64
	seconds float64
	reps    int  // 0: as many as fit in seconds
	smoke   bool // test-sized inputs and ladder
	tmp     string
}

// result is one workload's report.
type result struct {
	workload          string
	attempted, failed int
	notes             []string
	defs              []metricDef
	metrics           map[string]float64
	// Spread of the timing samples behind the medians, for the human report.
	wallNs, setupS []float64
}

func (r *result) correct() bool { return r.failed == 0 }

// absorb adds a pass's operation counts and checks its exact fingerprint
// against the first pass seen: any two passes of one workload at one seed
// must simulate bit-identical systems.
func (r *result) absorb(p, first *passResult, what string) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.notes = append(r.notes, p.notes...)
	if p.virtual != first.virtual || p.msgs != first.msgs || p.events != first.events {
		r.failed++
		r.notes = append(r.notes, fmt.Sprintf("%s is not bit-reproducible: virtual %v vs %v, events %d vs %d, msgs %d vs %d",
			what, p.virtual, first.virtual, p.events, first.events, p.msgs, first.msgs))
	}
}

// checkOrdering applies the paper's ordering: LCI never loses to Open MPI.
func (r *result) checkOrdering(p *passResult) {
	if p.virtual[0] > p.virtual[1] {
		r.failed++
		r.notes = append(r.notes, fmt.Sprintf("virtual_lci_s %g > virtual_mpi_s %g", p.virtual[0], p.virtual[1]))
	}
}

func measureUntraced(w workload, o options) result {
	res := result{workload: w.name, defs: endToEnd, metrics: make(map[string]float64)}
	c := passCfg{seed: o.seed, smoke: o.smoke, tmp: o.tmp}

	// timedPass runs one pass from a collected heap and records its whole
	// wall time as a set-up sample.
	timedPass := func() passResult {
		runtime.GC()
		t0 := time.Now()
		p := w.pass(c)
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		return p
	}
	first := timedPass()
	res.checkOrdering(&first)
	res.absorb(&first, &first, "warm-up pass")

	var before, after, live runtime.MemStats
	var tasks int64
	var last passResult
	runtime.ReadMemStats(&before)
	start := time.Now()
	for rep := 0; ; rep++ {
		if o.reps > 0 {
			if rep >= o.reps {
				break
			}
		} else if rep >= minReps && time.Since(start).Seconds() >= o.seconds {
			break
		}
		p := timedPass()
		res.absorb(&p, &first, fmt.Sprintf("rep %d", rep))
		if p.tasks > 0 {
			res.wallNs = append(res.wallNs, float64(p.run)/float64(p.tasks))
			tasks += p.tasks
		}
		last = p
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(last.retain)

	if tasks == 0 {
		res.failed++
		res.notes = append(res.notes, "no task ran in the timed reps")
		return res
	}
	res.metrics["setup_s"] = stats.Percentile(res.setupS, 50)
	res.metrics["wall_ns_per_task"] = stats.Percentile(res.wallNs, 50)
	res.metrics["allocs_per_task"] = float64(after.Mallocs-before.Mallocs) / float64(tasks)
	res.metrics["alloc_bytes_per_task"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(tasks)
	res.metrics["live_heap_mb"] = float64(live.HeapAlloc) / (1 << 20)
	res.metrics["virtual_lci_s"] = first.virtual[0]
	res.metrics["virtual_mpi_s"] = first.virtual[1]
	return res
}

// measureTraced runs one workload's traced protocol. rungs is the layer
// ladder, measured once per command and reported with every workload.
func measureTraced(w workload, o options, rungs map[string]float64, ladderErr error) result {
	res := result{workload: w.name, defs: perLayer}
	c := passCfg{seed: o.seed, smoke: o.smoke, tmp: o.tmp, layers: true}

	var gc0, gc1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&gc0)
	ref := w.pass(c)
	runtime.ReadMemStats(&gc1)
	res.checkOrdering(&ref)
	res.absorb(&ref, &ref, "reference pass")
	m := ref.layers.metrics(ref.virtual)
	m["host.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	m["host.gc_pause_ms"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
	res.metrics = m

	// base is the untraced pass the traced one is compared with: the serial
	// twin for a sharded workload, whose spans must be recorded on one
	// goroutine.
	base := ref
	if w.sharded {
		c.serialTwin = true
		runtime.GC()
		twin := w.pass(c)
		res.absorb(&twin, &ref, "serial twin")
		m["sim.shard_speedup"] = ratio(float64(twin.run), float64(ref.run))
		base = twin
	}
	if w.decorable {
		c.spans = true
		runtime.GC()
		tr := w.pass(c)
		res.absorb(&tr, &ref, "traced pass")
		// Span metrics come from the traced pass; every count above comes
		// from the untraced reference pass.
		tm := tr.layers.metrics(tr.virtual)
		for _, d := range spanMetrics {
			m[d.name] = tm[d.name]
		}
		m["trace.overhead_frac"] = ratio(float64(tr.run), float64(base.run)) - 1
	}

	res.attempted++
	if ladderErr != nil {
		res.failed++
		res.notes = append(res.notes, "ladder: "+ladderErr.Error())
	}
	for k, v := range rungs {
		m[k] = v
	}
	return res
}

// report prints the human-readable block of one result.
func (r *result) report(out io.Writer) {
	fmt.Fprintf(out, "== %s  ops_attempted=%d ops_failed=%d\n", r.workload, r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(out, "   FAILED: %s\n", n)
	}
	for _, d := range r.defs {
		fmt.Fprintf(out, "   %-34s %16.6g %s\n", d.name, r.metrics[d.name], d.unit)
	}
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"wall_ns_per_task", r.wallNs}, {"setup_s", r.setupS}} {
		if len(s.xs) == 0 {
			continue
		}
		fmt.Fprintf(out, "   spread %-18s n=%d min=%.6g max=%.6g iqr=%.6g\n", s.name, len(s.xs),
			stats.Percentile(s.xs, 0), stats.Percentile(s.xs, 100), stats.Percentile(s.xs, 75)-stats.Percentile(s.xs, 25))
	}
}
