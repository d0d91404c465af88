package expd

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"amtlci/internal/bench"
	"amtlci/internal/netpipe"
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
		figs, err := Figures(s, rs)
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
