package expd

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"amtlci/internal/bench"
	"amtlci/internal/metrics"
	"amtlci/internal/netpipe"
)

// EvalHooks observe point evaluation; a nil hook is skipped. Hooks are
// called from sweep worker goroutines and must be safe for concurrent use.
type EvalHooks struct {
	// Done fires when a point finishes: cached reports a cache hit (no
	// simulation ran), elapsed is the wall time spent on the point.
	Done func(i int, r PointResult, cached bool, err error, elapsed time.Duration)
	// Registry, when set, receives the registry of every run a point
	// reports: a HiCMA point's last run (row 0) and each fault rate's run
	// of a chaos rate point (row indexes the point's Rates). Every point is
	// then simulated rather than served from the cache, whose entries hold
	// no registry; its result is still cached. Pingpong, overlap and crash
	// points report none.
	Registry func(i, row int, reg *metrics.Registry)
}

// EvalPoints evaluates pts on up to `workers` goroutines via bench.SweepCtx,
// consulting (and populating) cache when non-nil. Results come back in
// point order. On cancellation the completed prefix is returned with
// ctx.Err(); if any point fails, evaluation continues (other points stay
// cacheable) and the first failure is returned alongside the full slice.
func EvalPoints(ctx context.Context, workers int, pts []Point, cache *Cache, hooks EvalHooks) ([]PointResult, error) {
	type outcome struct {
		res PointResult
		err error
	}
	evaluated, err := bench.SweepCtx(ctx, bench.SweepWorkers(workers, len(pts)), len(pts), func(i int) outcome {
		begin := time.Now()
		p := pts[i]
		h := p.Hash()
		if cache != nil && hooks.Registry == nil {
			if r, ok := cache.GetResult(h, p.resultKind()); ok {
				if hooks.Done != nil {
					hooks.Done(i, r, true, nil, time.Since(begin))
				}
				return outcome{res: r}
			}
		}
		var registry func(int, *metrics.Registry)
		if hooks.Registry != nil {
			registry = func(row int, reg *metrics.Registry) { hooks.Registry(i, row, reg) }
		}
		r, perr := evalPoint(p, registry)
		if perr == nil && cache != nil {
			if cerr := cache.PutResult(h, r); cerr != nil {
				perr = fmt.Errorf("expd: caching point result: %w", cerr)
			}
		}
		if hooks.Done != nil {
			hooks.Done(i, r, false, perr, time.Since(begin))
		}
		return outcome{res: r, err: perr}
	})
	out := make([]PointResult, len(evaluated))
	var firstErr error
	for i, o := range evaluated {
		out[i] = o.res
		if o.err != nil && firstErr == nil {
			firstErr = o.err
		}
	}
	if err != nil {
		return out, err
	}
	return out, firstErr
}

// gf formats a float64 with the shortest representation that round-trips,
// so assembled CSVs are exact and byte-stable across cache hit and miss.
func gf(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// AssembleTable renders a completed sweep as its result table, one row per
// measurement in point order. The layout is long-format (one series column
// set per kind), so the CSV loads into plotting scripts without reshaping,
// and the bytes depend only on the results — a cache-served sweep emits
// byte-identical output to the run that populated the cache.
func AssembleTable(s Spec, pts []Point, results []PointResult) (*bench.Table, error) {
	if len(pts) != len(results) {
		return nil, fmt.Errorf("expd: %d points but %d results", len(pts), len(results))
	}
	switch s.Kind {
	case KindTile, KindNodes:
		t := bench.NewTable("expd "+s.Kind+" sweep",
			"backend", "nodes", "tile", "mt", "tts_s", "e2e_ms", "hop_ms", "tasks", "avg_rank")
		for i, p := range pts {
			r := results[i].HiCMA
			if r == nil {
				return nil, fmt.Errorf("expd: point %d: missing hicma result", i)
			}
			t.AddRow(p.Backend, strconv.Itoa(p.Nodes), strconv.Itoa(p.NB),
				strconv.FormatBool(p.MT), gf(r.TimeToSolution), gf(r.E2ELatencyMS),
				gf(r.HopLatencyMS), strconv.FormatInt(r.Tasks, 10), gf(r.AvgRank))
		}
		return t, nil

	case KindPingPong:
		t := bench.NewTable("expd pingpong sweep",
			"backend", "size", "streams", "sync", "gbps", "netpipe_gbps")
		for i, p := range pts {
			r := results[i].PingPong
			if r == nil {
				return nil, fmt.Errorf("expd: point %d: missing pingpong result", i)
			}
			t.AddRow(p.Backend, strconv.FormatInt(p.Size, 10), strconv.Itoa(p.Streams),
				strconv.FormatBool(p.Sync), gf(r.Gbps), gf(netpipe.Bandwidth(netpipe.DefaultConfig(), p.Size)))
		}
		return t, nil

	case KindOverlap:
		t := bench.NewTable("expd overlap sweep", "backend", "size", "gflops", "roofline", "no_overlap")
		for i, p := range pts {
			r := results[i].Overlap
			if r == nil {
				return nil, fmt.Errorf("expd: point %d: missing overlap result", i)
			}
			t.AddRow(p.Backend, strconv.FormatInt(p.Size, 10), gf(r.GFLOPS), gf(r.Roofline), gf(r.NoOverlap))
		}
		return t, nil

	case KindChaos:
		if s.crashing() {
			return crashTable(pts, results), nil
		}
		t := bench.NewTable("expd chaos sweep",
			"backend", "workload", "rate_pct", "makespan_ns", "slowdown",
			"dropped", "duplicated", "corrupted", "retransmits", "verified", "error")
		for i, p := range pts {
			r := results[i].Chaos
			if r == nil {
				return nil, fmt.Errorf("expd: point %d: missing chaos result", i)
			}
			t.AddRow(p.Backend, p.Workload, "0", strconv.FormatInt(r.BaselineNS, 10),
				"1", "0", "0", "0", "0", "true", "")
			for _, row := range r.Rows {
				t.AddRow(p.Backend, p.Workload, gf(row.RatePct),
					strconv.FormatInt(row.MakespanNS, 10), gf(row.Slowdown),
					strconv.FormatUint(row.Dropped, 10), strconv.FormatUint(row.Duplicated, 10),
					strconv.FormatUint(row.Corrupted, 10), strconv.FormatUint(row.Retransmits, 10),
					strconv.FormatBool(row.Verified), row.Err)
			}
		}
		return t, nil
	}
	return nil, fmt.Errorf("expd: unknown spec kind %q", s.Kind)
}
