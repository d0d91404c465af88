package expd

import (
	"context"
	"strings"
	"testing"

	"amtlci/internal/bench"
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
