package main

import (
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// smoke runs a set of workloads at test sizes, one timed rep each.
func smoke(t *testing.T, seed uint64, traced bool) []result {
	t.Helper()
	o := options{seed: seed, seconds: 1, reps: 1, smoke: true, tmp: t.TempDir()}
	var out strings.Builder
	results := runSet(workloads, o, traced, &out)
	for _, r := range results {
		if !r.correct() {
			t.Errorf("%s (seed %d, traced=%v): %d of %d operations failed: %v",
				r.workload, seed, traced, r.failed, r.attempted, r.notes)
		}
	}
	return results
}

// TestBenchmarkFileMatchesProgram: every workload and metric BENCHMARK.json
// names is one the command reports, with the same unit, and vice versa; names
// and counts respect the benchmark contract's limits.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not a valid benchmark name", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if n := len(bf.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d (limit 2-8)", n, len(workloads))
	}
	for i, w := range bf.Workloads {
		checkName("workload", w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if n := len(bf.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d (limit 1-16)", n, len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		checkName("end-to-end metric", m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s [%s], the program %s [%s]",
				i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !unitRE.MatchString(m.Unit) || m.Better != "lower" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q, better %q, bound %g", m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	if bf.EndToEnd[0].Name != "setup_s" || bf.EndToEnd[0].Unit != "s" {
		t.Errorf("the contract requires a setup_s metric in seconds")
	}

	if n := len(bf.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d (limit 1-128)", n, len(perLayer))
	}
	for i, m := range bf.PerLayer {
		checkName("per-layer metric", m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the program %s [%s]",
				i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// TestResultLine: the driver's JSON line carries exactly the declared
// metrics, with their units.
func TestResultLine(t *testing.T) {
	r := result{workload: "w", attempted: 3, defs: endToEnd, metrics: map[string]float64{"setup_s": 1.5}}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(r.json()), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != 3 || line.Failed != 0 || len(line.Metrics) != len(endToEnd) {
		t.Fatalf("bad result line %s", r.json())
	}
	if m := line.Metrics["setup_s"]; m.Value != 1.5 || m.Unit != "s" {
		t.Fatalf("setup_s = %+v", m)
	}
}

// TestSmokeUntraced: two runs at one seed agree exactly on the simulated
// metrics, every workload reports every end-to-end metric as a positive
// number with no failed operation, and a second seed moves the simulated
// times while still passing every check.
func TestSmokeUntraced(t *testing.T) {
	a, b, other := smoke(t, 3, false), smoke(t, 3, false), smoke(t, 4, false)
	for i, r := range a {
		for _, d := range endToEnd {
			if v, ok := r.metrics[d.name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", r.workload, d.name, v)
			}
			if d.exact && r.metrics[d.name] != b[i].metrics[d.name] {
				t.Errorf("%s: %s differs between two runs at one seed: %v vs %v",
					r.workload, d.name, r.metrics[d.name], b[i].metrics[d.name])
			}
		}
		if r.metrics["virtual_lci_s"] == other[i].metrics["virtual_lci_s"] &&
			r.metrics["virtual_mpi_s"] == other[i].metrics["virtual_mpi_s"] {
			t.Errorf("%s: seed 4 simulated the same times as seed 3; the seed does not reach the inputs", r.workload)
		}
	}
}

// TestSmokeTraced: the traced run passes its own checks — which include that
// the Taskpool and core.Engine decorators are transparent (the traced pass
// and the serial twin reproduce the reference pass's simulated times, event
// count and fabric message count bit for bit) — reports every per-layer
// metric, and the workloads separate the layers as designed.
func TestSmokeTraced(t *testing.T) {
	byName := map[string]map[string]float64{}
	for _, r := range smoke(t, 3, true) {
		byName[r.workload] = r.metrics
		for _, d := range ladderMetrics {
			if d.unit == "ns" && r.metrics[d.name] <= 0 {
				t.Errorf("%s: ladder rung %s = %v, want > 0", r.workload, d.name, r.metrics[d.name])
			}
		}
	}
	for name, m := range byName {
		w, _ := findWorkload(name)
		if w.decorable {
			for _, k := range []string{"taskpool.calls_per_task", "ce.down_calls_per_task", "parsec.comm_ns_per_task", "sim.events_per_task"} {
				if m[k] <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, k, m[k])
				}
			}
		}
		for _, k := range []string{"rel.retransmit_frac", "rel.acks_per_data", "recover.ckpt_per_task", "recover.restarts_per_run"} {
			if on := name == "chaos_recover"; (m[k] > 0) != on {
				t.Errorf("%s: %s = %v, want non-zero only on chaos_recover", name, k, m[k])
			}
		}
	}
	if m := byName["hicma_wide_shards2"]; m["sim.shard_speedup"] <= 0 || m["sim.rounds_per_kevent"] <= 0 {
		t.Errorf("hicma_wide_shards2: shard_speedup %v, rounds_per_kevent %v, want > 0",
			m["sim.shard_speedup"], m["sim.rounds_per_kevent"])
	}
	if rdv, strong := byName["pingpong_rdv"]["fabric.msgs_per_task"], byName["hicma_strong"]["fabric.msgs_per_task"]; rdv <= strong {
		t.Errorf("fabric.msgs_per_task: pingpong_rdv %v should exceed hicma_strong %v", rdv, strong)
	}
	if m := byName["sweep_tiles"]; m["expd.cache_hit_frac_warm"] != 1 {
		t.Errorf("sweep_tiles: warm cache hit fraction %v, want 1", m["expd.cache_hit_frac_warm"])
	}
}
