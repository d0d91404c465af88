package bench

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestSweepPreservesPointOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 100} {
		got := Sweep(workers, 37, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if n := len(Sweep(4, 0, func(i int) int { return i })); n != 0 {
		t.Fatalf("empty sweep returned %d results", n)
	}
}

func TestSweepWorkersClamp(t *testing.T) {
	ncpu := runtime.NumCPU()
	min := func(a, b int) int {
		if a < b {
			return a
		}
		return b
	}
	cases := []struct{ j, n, want int }{
		{1, 10, 1},
		{8, 10, 8},
		{8, 3, 3},            // capped at n
		{0, 2, min(ncpu, 2)}, // NumCPU, capped at n
		{-1, 1, 1},           // NumCPU, capped at n=1
		{4, 0, 1},            // floored at 1 so pools stay usable
		{16, 16, 16},
	}
	for _, c := range cases {
		if got := SweepWorkers(c.j, c.n); got != c.want {
			t.Errorf("SweepWorkers(%d, %d) = %d, want %d", c.j, c.n, got, c.want)
		}
	}
	if got := SweepWorkers(0, 1<<30); got < 1 {
		t.Errorf("SweepWorkers(0, big) = %d, want >= 1", got)
	}
}

// TestSweepCtxCancellation pins the cancellation contract: after cancel,
// SweepCtx stops dispatching, in-flight points drain, and the returned slice
// is a gap-free completed prefix. Run under -race in verify, this also
// exercises the dispatch/cancel interleaving.
func TestSweepCtxCancellation(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		const n = 64
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		out, err := SweepCtx(ctx, workers, n, func(i int) int {
			if ran.Add(1) == int64(workers) {
				cancel() // every worker is mid-point; nothing more may dispatch
			}
			time.Sleep(time.Millisecond)
			return i * i
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(out) >= n {
			t.Fatalf("workers=%d: cancellation did not stop dispatch (%d/%d points)", workers, len(out), n)
		}
		// The prefix must be gap-free and in point order.
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
		// Every dispatched point completed; nothing beyond the prefix ran
		// except points claimed concurrently with the cancel.
		if got := ran.Load(); got < int64(len(out)) {
			t.Fatalf("workers=%d: %d points ran but prefix has %d", workers, got, len(out))
		}
	}
}

// TestSweepCtxCompletes pins the wrapper equivalence: with an uncancelled
// context SweepCtx returns the full sweep and a nil error, exactly as Sweep.
func TestSweepCtxCompletes(t *testing.T) {
	out, err := SweepCtx(context.Background(), 7, 23, func(i int) int { return i + 1 })
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if len(out) != 23 {
		t.Fatalf("len = %d, want 23", len(out))
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i+1)
		}
	}
	// A context cancelled before the first dispatch yields an empty prefix.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err = SweepCtx(ctx, 4, 9, func(i int) int { t.Error("point ran after cancel"); return 0 })
	if err == nil || len(out) != 0 {
		t.Fatalf("pre-cancelled sweep: len=%d err=%v, want 0 and context.Canceled", len(out), err)
	}
}
