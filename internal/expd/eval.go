package expd

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"amtlci/internal/bench"
	"amtlci/internal/metrics"
)

// EvalHooks observe point evaluation; a nil hook is skipped. Hooks are
// called from sweep worker goroutines and must be safe for concurrent use.
type EvalHooks struct {
	// Done fires when a point finishes: cached reports a cache hit (no
	// simulation ran), elapsed is the wall time spent on the point.
	Done func(i int, r PointResult, cached bool, err error, elapsed time.Duration)
	// Registry, when set, is asked for each point's registry sink. A
	// non-nil sink receives the registry of every run the point reports: a
	// HiCMA point's last run (row 0) and each fault rate's run of a chaos
	// rate point (row indexes the point's Rates). Such a point is simulated
	// rather than served from the cache, whose entries hold no registry;
	// its result is still cached. Pingpong, overlap and crash points report
	// none.
	Registry func(i int) func(row int, reg *metrics.Registry)
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
		var registry func(int, *metrics.Registry)
		if hooks.Registry != nil {
			registry = hooks.Registry(i)
		}
		if cache != nil && registry == nil {
			if r, ok := cache.GetResult(h, p.resultKind()); ok {
				if hooks.Done != nil {
					hooks.Done(i, r, true, nil, time.Since(begin))
				}
				return outcome{res: r}
			}
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

// AssembleTable renders a completed tile or nodes sweep as its point table,
// one row per point in point order. The layout is long-format, so the CSV
// loads into plotting scripts without reshaping, and the bytes depend only
// on the results: a cache-served sweep emits byte-identical output to the
// run that populated the cache.
func AssembleTable(s Spec, pts []Point, results []PointResult) (*bench.Table, error) {
	if len(pts) != len(results) {
		return nil, fmt.Errorf("expd: %d points but %d results", len(pts), len(results))
	}
	if s.Kind != KindTile && s.Kind != KindNodes {
		return nil, fmt.Errorf("expd: no point table for kind %q", s.Kind)
	}
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
}
