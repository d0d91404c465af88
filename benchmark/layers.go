package main

import (
	"runtime"
	"slices"

	"amtlci/internal/core/stack"
	"amtlci/internal/metrics"
)

// metricDef names one reported metric. exact marks end-to-end metrics that
// are simulated quantities: bit-identical for a fixed seed on every pass.
// resolution is the absolute difference below which two readings of a host
// metric are the same reading (-selfcheck).
type metricDef struct {
	name, unit string
	exact      bool
	resolution float64
}

// endToEnd lists the seven end-to-end metrics every workload reports; all
// are lower-is-better. BENCHMARK.json fixes their regression bounds.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "wall_ns_per_task", unit: "ns"},
	{name: "allocs_per_task", unit: "count"},
	{name: "alloc_bytes_per_task", unit: "B"},
	// The Go runtime's own bookkeeping moves the post-GC heap by tens of KiB
	// between otherwise identical states; sweep_tiles retains only ~170 KiB.
	{name: "live_heap_mb", unit: "MB", resolution: 1.0 / 16},
	{name: "virtual_lci_s", unit: "s", exact: true},
	{name: "virtual_mpi_s", unit: "s", exact: true},
}

// perLayer lists the per-layer metrics of the traced run, in report order.
// A metric whose layer a workload does not exercise (or cannot observe from
// outside) reads 0 on that workload.
var perLayer = slices.Concat(countMetrics, spanMetrics, ladderMetrics)

// countMetrics (source 1) are exact counts from the shared metrics registry,
// the engine and the sharded domain, normalised per task or per message.
var countMetrics = []metricDef{
	{name: "sim.events_per_task", unit: "count"},
	{name: "sim.wall_ns_per_event", unit: "ns"},
	{name: "sim.rounds_per_kevent", unit: "count"},
	{name: "sim.elided_shard_round_frac", unit: "frac"},
	{name: "sim.shard_speedup", unit: "x"},
	{name: "fabric.msgs_per_task", unit: "count"},
	{name: "fabric.bytes_per_task", unit: "B"},
	{name: "fabric.tx_busy_frac", unit: "frac"},
	{name: "mpi.msgs_per_task", unit: "count"},
	{name: "mpi.unexpected_hit_frac", unit: "frac"},
	{name: "lci.msgs_per_task", unit: "count"},
	{name: "lci.retry_frac", unit: "frac"},
	{name: "lci.progress_calls_per_msg", unit: "count"},
	{name: "mpice.ams_per_task", unit: "count"},
	{name: "mpice.puts_per_task", unit: "count"},
	{name: "mpice.deferred_frac", unit: "frac"},
	{name: "mpice.comm_busy_frac", unit: "frac"},
	{name: "mpice.progress_passes_per_msg", unit: "count"},
	{name: "lcice.ams_per_task", unit: "count"},
	{name: "lcice.puts_per_task", unit: "count"},
	{name: "lcice.deferred_frac", unit: "frac"},
	{name: "lcice.comm_busy_frac", unit: "frac"},
	{name: "lcice.prog_busy_frac", unit: "frac"},
	{name: "parsec.activations_per_am", unit: "count"},
	{name: "parsec.gets_per_task", unit: "count"},
	{name: "parsec.fetch_deferred_frac", unit: "frac"},
	{name: "parsec.worker_busy_frac", unit: "frac"},
	{name: "parsec.e2e_latency_us", unit: "us"},
	{name: "parsec.hop_latency_us", unit: "us"},
	{name: "parsec.term_rounds_per_run", unit: "count"},
	{name: "rel.retransmit_frac", unit: "frac"},
	{name: "rel.acks_per_data", unit: "count"},
	{name: "recover.ckpt_per_task", unit: "count"},
	{name: "recover.restarts_per_run", unit: "count"},
	{name: "recover.tasks_restored_per_run", unit: "count"},
	{name: "steal.tasks_per_run", unit: "count"},
	{name: "expd.cache_hit_frac_warm", unit: "frac"},
	{name: "expd.warm_us_per_point", unit: "us"},
	{name: "bench.sweep_parallel_eff", unit: "frac"},
	{name: "model.lci_speedup", unit: "x"},
	{name: "model.err_pct_lci_32KiB", unit: "%"},
	{name: "host.gc_cycles", unit: "count"},
	{name: "host.gc_pause_ms", unit: "ms"},
	{name: "host.cores", unit: "count"},
}

// spanMetrics (source 2) are folded from the boundary spans of trace.go.
var spanMetrics = []metricDef{
	{name: "taskpool.ns_per_task", unit: "ns"},
	{name: "taskpool.calls_per_task", unit: "count"},
	{name: "lcice.down_ns_per_call", unit: "ns"},
	{name: "mpice.down_ns_per_call", unit: "ns"},
	{name: "ce.down_calls_per_task", unit: "count"},
	{name: "parsec.comm_ns_per_task", unit: "ns"},
	{name: "rest.ns_per_task", unit: "ns"},
	{name: "trace.overhead_frac", unit: "frac"},
}

// ladderMetrics (source 3) are the rungs of ladder.go.
var ladderMetrics = []metricDef{
	{name: "sim.ns_per_event", unit: "ns"},
	{name: "sim.allocs_per_event", unit: "count"},
	{name: "sim.proc_ns_per_op", unit: "ns"},
	{name: "fabric.ns_per_msg_ctl", unit: "ns"},
	{name: "fabric.allocs_per_msg_ctl", unit: "count"},
	{name: "fabric.ns_per_msg_bulk", unit: "ns"},
	{name: "fabric.allocs_per_msg_bulk", unit: "count"},
	{name: "rel.ns_per_msg", unit: "ns"},
	{name: "rel.allocs_per_msg", unit: "count"},
	{name: "mpi.ns_per_msg_eager", unit: "ns"},
	{name: "mpi.allocs_per_msg_eager", unit: "count"},
	{name: "mpi.ns_per_msg_rdv", unit: "ns"},
	{name: "mpi.allocs_per_msg_rdv", unit: "count"},
	{name: "lci.ns_per_msg_buffered", unit: "ns"},
	{name: "lci.allocs_per_msg_buffered", unit: "count"},
	{name: "lci.ns_per_msg_direct", unit: "ns"},
	{name: "lci.allocs_per_msg_direct", unit: "count"},
	{name: "mpice.ns_per_am", unit: "ns"},
	{name: "mpice.allocs_per_am", unit: "count"},
	{name: "mpice.ns_per_put", unit: "ns"},
	{name: "mpice.allocs_per_put", unit: "count"},
	{name: "lcice.ns_per_am", unit: "ns"},
	{name: "lcice.allocs_per_am", unit: "count"},
	{name: "lcice.ns_per_put", unit: "ns"},
	{name: "lcice.allocs_per_put", unit: "count"},
	{name: "parsec.ns_per_task_local", unit: "ns"},
	{name: "parsec.allocs_per_task_local", unit: "count"},
	{name: "parsec.ns_per_task_remote_lci", unit: "ns"},
	{name: "parsec.allocs_per_task_remote_lci", unit: "count"},
	{name: "parsec.ns_per_task_remote_mpi", unit: "ns"},
	{name: "parsec.allocs_per_task_remote_mpi", unit: "count"},
	{name: "hicma.ns_per_pool_call", unit: "ns"},
	{name: "hicma.allocs_per_pool_call", unit: "count"},
}

// paperLCIGbps32KiB is the paper's Fig 2a LCI bandwidth at 32 KiB
// fragments, one of the four anchors the model is validated at.
const paperLCIGbps32KiB = 43.5

// layerCounts accumulates the raw per-layer counts of one pass; metrics()
// turns them into the source-1 and source-2 per-layer metrics.
type layerCounts struct {
	// reg sums every counter and cumulative probe of the shared registry,
	// keyed "layer/name", over ranks and over the pass's simulations.
	reg map[string]float64

	runs      float64
	tasks     [2]float64 // tasks per backend [LCI, MPI]
	rankSec   [2]float64 // sum of ranks x virtual makespan: busy-fraction denominator
	workerSec float64    // sum of ranks x workers x virtual makespan
	wallNs    float64    // run-phase host time
	events    float64

	rounds, elided, shardRounds float64    // sim.Parallel round protocol
	e2e, hop                    [2]float64 // parsec tracer means, us

	spans [2]spanTotals // folded boundary spans per backend (traced pass)

	lciGbps   float64 // ping-pong bandwidth of the LCI run
	fragBytes int64
	sweep     *sweepCounts
}

type sweepCounts struct {
	points, workers             int
	warmHits                    int64
	warmNs, coldNs, coldPointNs float64
}

func newLayerCounts() *layerCounts { return &layerCounts{reg: make(map[string]float64)} }

// addRun folds one simulation's registry and outcome into the counts.
func (lc *layerCounts) addRun(b stack.Backend, ranks, workers int, out simOut, reg *metrics.Registry) {
	for _, s := range reg.Snapshots() {
		if s.Kind == metrics.KindCounter || (s.Kind == metrics.KindProbe && s.Cumulative) {
			lc.reg[s.Desc.Layer+"/"+s.Desc.Name] += s.Value
		}
	}
	bi := backendIndex(b)
	lc.runs++
	lc.tasks[bi] += float64(out.tasks)
	lc.rankSec[bi] += float64(ranks) * out.virtual.Seconds()
	lc.workerSec += float64(ranks) * float64(workers) * out.virtual.Seconds()
	lc.wallNs += float64(out.wall)
	lc.events += float64(out.events)
}

// ratio is a/b, and 0 when the denominator layer did not run.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics derives the source-1 and source-2 per-layer metrics. virtual is
// the pass's simulated seconds per backend.
func (lc *layerCounts) metrics(virtual [2]float64) map[string]float64 {
	r := lc.reg
	tasks := lc.tasks[0] + lc.tasks[1]
	lciTasks, mpiTasks := lc.tasks[0], lc.tasks[1]
	m := map[string]float64{
		"sim.events_per_task":         ratio(lc.events, tasks),
		"sim.wall_ns_per_event":       ratio(lc.wallNs, lc.events),
		"sim.rounds_per_kevent":       ratio(lc.rounds*1000, lc.events),
		"sim.elided_shard_round_frac": ratio(lc.elided, lc.shardRounds),

		"fabric.msgs_per_task":  ratio(r["fabric/msgs_sent"], tasks),
		"fabric.bytes_per_task": ratio(r["fabric/bytes_sent"], tasks),
		"fabric.tx_busy_frac":   ratio(r["fabric/tx_busy"], lc.rankSec[0]+lc.rankSec[1]),

		"mpi.msgs_per_task":       ratio(r["mpi/sent"], mpiTasks),
		"mpi.unexpected_hit_frac": ratio(r["mpi/unexpected_hits"], r["mpi/received"]),

		"lci.msgs_per_task":          ratio(r["lci/sent"], lciTasks),
		"lci.retry_frac":             ratio(r["lci/retries"], r["lci/sent"]),
		"lci.progress_calls_per_msg": ratio(r["lci/progress_calls"], r["lci/received"]),

		"mpice.ams_per_task":            ratio(r["mpice/ams_sent"], mpiTasks),
		"mpice.puts_per_task":           ratio(r["mpice/puts_started"], mpiTasks),
		"mpice.deferred_frac":           ratio(r["mpice/deferred"], r["mpice/ams_sent"]+r["mpice/puts_started"]),
		"mpice.comm_busy_frac":          ratio(r["mpice/comm_busy"], lc.rankSec[1]),
		"mpice.progress_passes_per_msg": ratio(r["mpice/progress_passes"], r["mpi/received"]),

		"lcice.ams_per_task":   ratio(r["lcice/ams_sent"], lciTasks),
		"lcice.puts_per_task":  ratio(r["lcice/puts_started"], lciTasks),
		"lcice.deferred_frac":  ratio(r["lcice/deferred"], r["lcice/ams_sent"]+r["lcice/puts_started"]),
		"lcice.comm_busy_frac": ratio(r["lcice/comm_busy"], lc.rankSec[0]),
		"lcice.prog_busy_frac": ratio(r["lcice/prog_busy"], lc.rankSec[0]),

		"parsec.activations_per_am":  ratio(r["parsec/activations"], r["parsec/activates_sent"]),
		"parsec.gets_per_task":       ratio(r["parsec/gets_sent"], tasks),
		"parsec.fetch_deferred_frac": ratio(r["parsec/fetch_deferred"], r["parsec/gets_sent"]),
		"parsec.worker_busy_frac":    ratio(r["parsec/workers_busy"], lc.workerSec),
		"parsec.e2e_latency_us":      (lc.e2e[0] + lc.e2e[1]) / 2,
		"parsec.hop_latency_us":      (lc.hop[0] + lc.hop[1]) / 2,
		"parsec.term_rounds_per_run": ratio(r["parsec/term_rounds"], lc.runs),

		"rel.retransmit_frac": ratio(r["rel/retransmits"], r["rel/data_sent"]),
		"rel.acks_per_data":   ratio(r["rel/acks_sent"], r["rel/data_delivered"]),

		"recover.ckpt_per_task":          ratio(r["recover/ckpt_sent"], tasks),
		"recover.restarts_per_run":       ratio(r["parsec/restarts"], lc.runs),
		"recover.tasks_restored_per_run": ratio(r["parsec/tasks_restored"], lc.runs),
		"steal.tasks_per_run":            ratio(r["parsec/steal_tasks"], lc.runs),

		"model.lci_speedup": ratio(virtual[1], virtual[0]),
		"host.cores":        float64(runtime.GOMAXPROCS(0)),
	}
	if lc.fragBytes == 32<<10 {
		m["model.err_pct_lci_32KiB"] = (lc.lciGbps - paperLCIGbps32KiB) / paperLCIGbps32KiB * 100
	}
	if sw := lc.sweep; sw != nil {
		m["expd.cache_hit_frac_warm"] = ratio(float64(sw.warmHits), float64(sw.points))
		m["expd.warm_us_per_point"] = ratio(sw.warmNs/1e3, float64(sw.points))
		m["bench.sweep_parallel_eff"] = ratio(sw.coldPointNs, float64(sw.workers)*sw.coldNs)
	}

	// Boundary spans: self time per layer, normalised per task (or per call
	// for the engine down-calls, whose count per task varies by workload).
	lci, mpi := lc.spans[0], lc.spans[1]
	all := lci
	all.add(mpi)
	if all.calls[layerPool]+all.calls[layerDown] > 0 {
		pool := ratio(float64(all.selfNs[layerPool]), tasks)
		down := ratio(float64(all.selfNs[layerDown]), tasks)
		up := ratio(float64(all.selfNs[layerUp]), tasks)
		m["taskpool.ns_per_task"] = pool
		m["taskpool.calls_per_task"] = ratio(float64(all.calls[layerPool]), tasks)
		m["lcice.down_ns_per_call"] = ratio(float64(lci.selfNs[layerDown]), float64(lci.calls[layerDown]))
		m["mpice.down_ns_per_call"] = ratio(float64(mpi.selfNs[layerDown]), float64(mpi.calls[layerDown]))
		m["ce.down_calls_per_task"] = ratio(float64(all.calls[layerDown]), tasks)
		m["parsec.comm_ns_per_task"] = up
		m["rest.ns_per_task"] = ratio(lc.wallNs, tasks) - pool - down - up
	}
	return m
}
