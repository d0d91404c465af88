package main

import (
	"context"
	"strings"
	"testing"

	"amtlci/internal/expd"
)

func TestAtExtremeIsTheFullSweepsEnds(t *testing.T) {
	for _, c := range []struct {
		op   string
		size int64
		want bool
	}{
		{"reduce", 256, true},
		{"allgather", 4 << 20, true},
		{"reduce", 1 << 20, false}, // the largest size -quick sweeps
		{"allreduce", 64 << 10, false},
		{"barrier", 0, false},
	} {
		if got := atExtreme(c.op, c.size); got != c.want {
			t.Errorf("atExtreme(%s, %d) = %v, want %v", c.op, c.size, got, c.want)
		}
	}
}

// TestQuickCheckHasNoExtremeMiss is -quick -check: every other size of
// the full sweep ends at 1 MiB, where the selector's picks are within
// noise of the fastest algorithm, so a miss there is a note. Judging the
// subset's own largest size as an extreme failed a correct selector.
func TestQuickCheckHasNoExtremeMiss(t *testing.T) {
	s, err := quickSpec().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	pts := s.Points()
	results, err := expd.EvalPoints(context.Background(), 2, pts, nil, expd.EvalHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if notes, extreme := selectorMisses(pts, results); extreme != 0 {
		t.Errorf("%d misses at size extremes:\n%s", extreme, strings.Join(notes, "\n"))
	}
}
