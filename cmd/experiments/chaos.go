package main

import (
	"context"
	"fmt"
	"time"

	"amtlci/internal/bench"
	"amtlci/internal/chaos"
	"amtlci/internal/core/stack"
	"amtlci/internal/expd"
	"amtlci/internal/metrics"
	"amtlci/internal/sim"
)

// runChaos evaluates chaos spec s on workers and prints its table: the
// rate sweep's, or with crashes or storm the crash proof's. With a csvDir
// it also writes each faulted run's registry, handed back by the point that
// ran it, or the crash summary. It returns the exit code: 1 when any point
// broke or failed its verdict.
func runChaos(s expd.Spec, workers int, cache *expd.Cache, csvDir string) int {
	// The seed is the replay handle of every point, so it prints before
	// anything can fail: a failure without its seed cannot be reproduced.
	seed := s.Seed
	if seed == 0 {
		seed = chaos.DefaultSeed
	}
	fmt.Printf("seed %#x\n", seed)

	pts := s.Points()
	crashing := len(s.Crashes) != 0 || s.Storm != 0
	// Each point's error arrives through Done, so a broken point prints in
	// its row; EvalPoints' own error is the first of those.
	errs := make([]error, len(pts))
	hooks := expd.EvalHooks{
		Done: func(i int, _ expd.PointResult, _ bool, err error, _ time.Duration) { errs[i] = err },
	}
	// metricsPaths[i][row] is the registry CSV of point i's row-th rate.
	metricsPaths := make([][]string, len(pts))
	if csvDir != "" && !crashing {
		for i, p := range pts {
			metricsPaths[i] = make([]string, len(p.Rates))
		}
		hooks.Registry = func(i, row int, reg *metrics.Registry) {
			p := pts[i]
			rate := p.Rates[row]
			title := fmt.Sprintf("chaos metrics: %s %s %.1f%% faults", p.Backend, p.Workload, rate)
			name := fmt.Sprintf("chaos-metrics-%s-%s-%.1fpct", p.Backend, p.Workload, rate)
			metricsPaths[i][row] = writeCSV(csvDir, name, bench.MetricsTable(reg, title))
		}
	}
	results, _ := expd.EvalPoints(context.Background(), workers, pts, cache, hooks)
	if crashing {
		fmt.Printf("%-8s %-9s %-22s %10s %10s %10s %8s %4s %4s %5s %6s %6s %6s  %s\n",
			"backend", "workload", "crashes", "baseline", "armed", "recovered",
			"slowdown", "rst", "abrt", "death", "ckpt", "restor", "steals", "verdict")
	} else {
		fmt.Printf("%-8s %-9s %6s %10s %9s %6s %6s %6s %7s %6s  %s\n",
			"backend", "workload", "rate", "makespan", "slowdown",
			"drop", "dup", "corr", "retrans", "steals", "verdict")
	}
	bad := false
	for i, p := range pts {
		b, _ := stack.ParseBackend(p.Backend) // canonical spelling
		if errs[i] != nil {
			fmt.Printf("%-8v %-9v %v\n", b, p.Workload, errs[i])
			bad = true
			continue
		}
		if r := results[i].Crash; r != nil {
			c := r.Counters
			fmt.Printf("%-8v %-9v %-22s %10v %10v %10v %7.2fx %4d %4d %5d %6d %6d %6d  %s\n",
				b, p.Workload, r.Cascade, r.Baseline, r.Armed, r.Recovered,
				float64(r.Recovered)/float64(r.Baseline), c["restarts"], c["rounds_aborted"],
				c["peer_deaths"], c["ckpt_sent"], c["tasks_restored"], c["steals"], r.Verdict)
			bad = bad || r.Verdict != "verified"
			continue
		}
		for ri, row := range results[i].Chaos.Rows {
			verdict := "verified"
			if row.Err != "" {
				verdict = "ABORT: " + row.Err
				bad = true
			} else if !row.Verified {
				verdict = fmt.Sprintf("WRONG (rel err %g)", row.RelErr)
				bad = true
			}
			fmt.Printf("%-8v %-9v %5.1f%% %10v %8.2fx %6d %6d %6d %7d %6d  %s\n",
				b, p.Workload, row.RatePct, sim.Duration(row.MakespanNS)*sim.Nanosecond, row.Slowdown,
				row.Dropped, row.Duplicated, row.Corrupted, row.Retransmits, row.Steals, verdict)
			if csvDir != "" {
				fmt.Println("  metrics -> " + metricsPaths[i][ri])
			}
		}
	}
	if csvDir != "" && crashing {
		t, err := expd.AssembleTable(s, pts, results)
		exitOn(err)
		fmt.Printf("summary -> %s\n", writeCSV(csvDir, "chaos-crash-summary", t))
	}
	if bad {
		return 1
	}
	return 0
}
