package main

import (
	"context"
	"fmt"
	"time"

	"amtlci/internal/bench"
	"amtlci/internal/chaos"
	"amtlci/internal/core/stack"
	"amtlci/internal/expd"
	"amtlci/internal/sim"
)

// runChaos evaluates chaos spec s on workers and prints its table: the
// rate sweep's, or with crashes or storm the crash proof's. With writeCSV
// it also writes each faulted run's registry, re-running the run (it is
// deterministic, so this is the registry the sweep measured), or the crash
// summary. It returns the exit code: 1 when any point broke or failed its
// verdict.
func runChaos(s expd.Spec, workers int, cache *expd.Cache, writeCSV func(string, *bench.Table) string) int {
	// The seed is the replay handle of every point, so it prints before
	// anything can fail: a failure without its seed cannot be reproduced.
	seed := s.Seed
	if seed == 0 {
		seed = chaos.DefaultSeed
	}
	fmt.Printf("seed %#x\n", seed)

	pts := s.Points()
	// Each point's error arrives through Done, so a broken point prints in
	// its row; EvalPoints' own error is the first of those.
	errs := make([]error, len(pts))
	results, _ := expd.EvalPoints(context.Background(), workers, pts, cache, expd.EvalHooks{
		Done: func(i int, _ expd.PointResult, _ bool, err error, _ time.Duration) { errs[i] = err },
	})
	crashing := len(s.Crashes) != 0 || s.Storm != 0
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
		for _, row := range results[i].Chaos.Rows {
			verdict := "verified"
			if row.Err != "" {
				verdict = "ABORT: " + row.Err
				bad = true
			} else if !row.Verified {
				verdict = fmt.Sprintf("WRONG (rel err %g)", row.RelErr)
				bad = true
			}
			fmt.Printf("%-8v %-9v %5.1f%% %10v %8.2fx %6d %6d %6d %7d %6d  %s\n",
				b, p.Workload, row.RatePct, sim.Duration(row.MakespanNS), row.Slowdown,
				row.Dropped, row.Duplicated, row.Corrupted, row.Retransmits, row.Steals, verdict)
			if writeCSV == nil {
				continue
			}
			o, err := p.ChaosOpts(row.RatePct)
			if err != nil {
				fmt.Printf("chaos: metrics dump failed: %v\n", err)
				bad = true
				continue
			}
			title := fmt.Sprintf("chaos metrics: %v %v %.1f%% faults", o.Backend, o.Workload, row.RatePct)
			name := fmt.Sprintf("chaos-metrics-%s-%s-%.1fpct", p.Backend, p.Workload, row.RatePct)
			fmt.Println("  metrics -> " + writeCSV(name, bench.MetricsTable(chaos.Run(o).Metrics, title)))
		}
	}
	if writeCSV != nil && crashing {
		t, err := expd.AssembleTable(s, pts, results)
		exitOn(err)
		fmt.Printf("summary -> %s\n", writeCSV("chaos-crash-summary", t))
	}
	if bad {
		return 1
	}
	return 0
}
