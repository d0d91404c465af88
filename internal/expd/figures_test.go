package expd

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"amtlci/internal/bench"
	"amtlci/internal/netpipe"
	"amtlci/internal/sim"
)

// evalCSV canonicalizes s, evaluates its points on `workers` goroutines and
// renders the result table as CSV.
func evalCSV(t *testing.T, s Spec, workers int) string {
	t.Helper()
	canon, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	pts := canon.Points()
	results, err := EvalPoints(context.Background(), workers, pts, nil, EvalHooks{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := AssembleTable(canon, pts, results)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tbl.CSV(&sb)
	return sb.String()
}

// TestSweepDeterministicAcrossWorkerCounts is the -j determinism guarantee:
// a real HiCMA tile sweep rendered as CSV must be byte-identical at -j 1 and
// -j 8. Every experiment point builds its own engine and seeded RNGs, so
// worker scheduling must not be able to leak into results; this test (run
// under -race in verify) is what keeps that property from regressing.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	s := Spec{Kind: KindTile, Backends: []string{"lci"}, N: 9600, Nodes: 2,
		Tiles: []int{1200, 2400, 4800}, Runs: 1}
	serial := evalCSV(t, s, 1)
	parallel := evalCSV(t, s, 8)
	if serial != parallel {
		t.Fatalf("CSV differs between -j 1 and -j 8:\n--- j=1 ---\n%s--- j=8 ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "1200") {
		t.Fatalf("sweep produced no rows:\n%s", serial)
	}
}

// TestStrongScalingParallelMatchesSerial pins the flattened-grid reassembly
// in StrongScalingFrom: best-tile selection per node count must not depend
// on worker count.
func TestStrongScalingParallelMatchesSerial(t *testing.T) {
	s, err := Spec{Kind: KindNodes, N: 9600, NodeCounts: []int{2, 4}, Tiles: []int{1200, 2400}, Runs: 1}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	scaling := func(workers int) []StrongScalingPoint {
		results, err := EvalPoints(context.Background(), workers, s.Points(), nil, EvalHooks{})
		if err != nil {
			t.Fatal(err)
		}
		points, err := StrongScalingFrom(s, results)
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	serial, parallel := scaling(1), scaling(8)
	if len(serial) != len(parallel) {
		t.Fatalf("point counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("point %d differs:\nserial:   %+v\nparallel: %+v", i, serial[i], parallel[i])
		}
	}
}

func TestBestTileArgmin(t *testing.T) {
	rs := []bench.HiCMAResult{{NB: 1, TimeToSolution: 5}, {NB: 2, TimeToSolution: 3}, {NB: 3, TimeToSolution: 9}}
	if BestTile(rs).NB != 2 {
		t.Fatal("BestTile picked the wrong row")
	}
}

// TestMicroFigures renders synthetic pingpong and overlap results: Fig 2a
// takes the one-stream synced series and the NetPIPE baseline, Fig 2b the
// two-stream series synced and not, and Fig 3 both backends' GFLOP/s with
// the models taken from the Open MPI point.
func TestMicroFigures(t *testing.T) {
	render := func(raw string, result func(p Point) PointResult) map[string]string {
		t.Helper()
		s, err := DecodeSpec([]byte(raw))
		if err != nil {
			t.Fatal(err)
		}
		var rs []PointResult
		for _, p := range s.Points() {
			rs = append(rs, result(p))
		}
		figs, err := Figures(s, rs, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, f := range figs {
			var sb strings.Builder
			f.Table.CSV(&sb)
			out[f.Name] = sb.String()
		}
		return out
	}
	// A value encodes its point: backend 1 or 2, then streams, then sync.
	code := func(p Point) float64 {
		v := 1.0
		if p.Backend == "mpi" {
			v = 2
		}
		v = v*10 + float64(p.Streams)
		if p.Sync {
			v = v*10 + 1
		}
		return v
	}
	figs := render(`{"kind":"pingpong"}`, func(p Point) PointResult {
		return PointResult{PingPong: &bench.PingPongResult{FragSize: p.Size, Gbps: code(p)}}
	})
	netpipe8K := fmt.Sprintf("%.1f", netpipe.Bandwidth(netpipe.DefaultConfig(), 8<<10))
	if got, want := firstRows(figs["fig2a"]), "granularity,LCI,Open MPI,NetPIPE\n8 KiB,111.0,211.0,"+netpipe8K+"\n"; got != want {
		t.Errorf("fig2a:\n%s\nwant\n%s", got, want)
	}
	if got, want := firstRows(figs["fig2b"]), "granularity,LCI,Open MPI,LCI (no sync),Open MPI (no sync)\n8 KiB,121.0,221.0,12.0,22.0\n"; got != want {
		t.Errorf("fig2b:\n%s\nwant\n%s", got, want)
	}
	if n := strings.Count(figs["fig2a"], "\n"); n != 1+len(bench.PingPongSizes()) {
		t.Errorf("fig2a has %d lines, want a header and one row per size", n)
	}

	figs = render(`{"kind":"overlap"}`, func(p Point) PointResult {
		r := bench.OverlapResult{FragSize: p.Size, GFLOPS: code(p), Roofline: 300, NoOverlap: 100}
		if p.Backend == "mpi" {
			r.Roofline, r.NoOverlap = 400, 200
		}
		return PointResult{Overlap: &r}
	})
	if got, want := firstRows(figs["fig3"]), "granularity,LCI,Open MPI,Roofline,No Overlap\n16 KiB,10,20,400,200\n"; got != want {
		t.Errorf("fig3:\n%s\nwant\n%s", got, want)
	}
	if n := strings.Count(figs["fig3"], "\n"); n != 1+len(bench.OverlapSizes()) {
		t.Errorf("fig3 has %d lines, want a header and one row per size", n)
	}
}

// firstRows is a CSV's header and first row.
func firstRows(csv string) string {
	lines := strings.SplitAfterN(csv, "\n", 3)
	return lines[0] + lines[1]
}

// TestChaosFigures renders crafted chaos results: a rate spec's table has
// runChaos's columns and a line after it for each failed fault rate, a crash
// spec's is the chaos-crash-summary table with a line for each point that
// errored or whose verdict is not "verified", and only a figure with such
// lines fails the run.
func TestChaosFigures(t *testing.T) {
	render := func(raw string, rs []PointResult, errs []error) (Figure, string) {
		t.Helper()
		s, err := DecodeSpec([]byte(raw))
		if err != nil {
			t.Fatal(err)
		}
		figs, err := Figures(s, rs, errs)
		if err != nil || len(figs) != 1 {
			t.Fatalf("%s: %d figures, err %v; want one", raw, len(figs), err)
		}
		var sb strings.Builder
		figs[0].Table.CSV(&sb)
		return figs[0], sb.String()
	}

	rate := PointResult{Chaos: &ChaosPointResult{BaselineNS: 1000, Rows: []ChaosRow{
		{RatePct: 1, MakespanNS: 1500, Slowdown: 1.5, Dropped: 1, Duplicated: 2, Corrupted: 3, Retransmits: 4, Verified: true},
		{RatePct: 2, MakespanNS: 2000, Slowdown: 2, Steals: 5, Err: "link severed"},
	}}}
	f, csv := render(`{"kind":"chaos","backends":["lci"],"workloads":["cholesky"],"rates":[1,2]}`, []PointResult{rate}, nil)
	want := "backend,workload,rate,makespan,slowdown,drop,dup,corr,retrans,steals,verdict\n" +
		"LCI,cholesky,1.0%,1.5µs,1.50x,1,2,3,4,0,verified\n" +
		"LCI,cholesky,2.0%,2µs,2.00x,0,0,0,0,5,ABORT\n"
	if f.Name != "chaos-rates" || csv != want {
		t.Errorf("rate figure %q:\n%s\nwant chaos-rates:\n%s", f.Name, csv, want)
	}
	if want := []string{"LCI cholesky 2.0%: ABORT: link severed"}; fmt.Sprint(f.Failures) != fmt.Sprint(want) {
		t.Errorf("rate failures %q, want %q", f.Failures, want)
	}

	crash := func(verdict string) PointResult {
		return PointResult{Crash: &CrashPointResult{Cascade: "1@4µs", Baseline: 10 * sim.Microsecond,
			Armed: 11 * sim.Microsecond, Recovered: 20 * sim.Microsecond, Counters: map[string]uint64{"restarts": 1},
			Verified: true, ReplayIdentical: true, Verdict: verdict}}
	}
	const crashSpec = `{"kind":"chaos","workloads":["cholesky","hicma"],"crashes":["1@40%"]}`
	ok := []PointResult{crash("verified"), crash("verified"), crash("verified"), crash("verified")}
	if f, _ := render(crashSpec, ok, nil); len(f.Failures) != 0 {
		t.Errorf("verified crash proofs fail: %q", f.Failures)
	}
	f, csv = render(crashSpec,
		[]PointResult{crash("verified"), crash("restarts 0, want 1..1"), {}, crash("verified")},
		[]error{nil, nil, errors.New("fault-free baseline broken"), nil})
	header := "backend,workload,crashes,baseline_makespan,armed_makespan,recovered_makespan,armed_overhead,recovered_slowdown," +
		"restarts,rounds_aborted,peer_deaths,ckpt_sent,ckpt_bytes,ckpt_stored,rereplicated,orphaned,tasks_restored," +
		"stale_dropped,steals,steal_tasks,rel_err,verified,replay_identical\n"
	row := func(b, w string) string {
		return b + "," + w + ",1@4µs,10µs,11µs,20µs,1.1000,2.0000,1,0,0,0,0,0,0,0,0,0,0,0,0,true,true\n"
	}
	if want := header + row("LCI", "cholesky") + row("LCI", "hicma") + row("Open MPI", "hicma"); f.Name != "chaos-crash-summary" || csv != want {
		t.Errorf("crash figure %q:\n%s\nwant chaos-crash-summary:\n%s", f.Name, csv, want)
	}
	if want := []string{"LCI hicma: restarts 0, want 1..1", "Open MPI cholesky: fault-free baseline broken"}; fmt.Sprint(f.Failures) != fmt.Sprint(want) {
		t.Errorf("crash failures %q, want %q", f.Failures, want)
	}

	// A figure spec with a failed point renders nothing and returns the error.
	s, err := DecodeSpec([]byte(`{"kind":"overlap"}`))
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, len(s.Points()))
	errs[1] = errors.New("point broke")
	if figs, err := Figures(s, make([]PointResult, len(errs)), errs); !errors.Is(err, errs[1]) || figs != nil {
		t.Errorf("overlap spec with a failed point: %d figures, err %v; want none and its error", len(figs), err)
	}
}
