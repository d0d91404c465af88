// Command chaos drives the real task graphs (dense Cholesky and HiCMA TLR
// Cholesky) to completion over a fault-injected fabric with the reliability
// layer interposed, and verifies the numerical result. It prints one line
// per (backend, workload, fault-rate) point — makespan, slowdown over the
// fault-free baseline, fault and recovery counters, and the verification
// verdict — plus the seed, so any failure reproduces exactly:
//
//	go run ./cmd/chaos                  # full sweep, both backends
//	go run ./cmd/chaos -quick           # one 2% point per backend
//	go run ./cmd/chaos -seed 7 -rate 2  # a specific reproduction
//	go run ./cmd/chaos -sever           # severed-link abort demonstration
//	go run ./cmd/chaos -crash 1@40%     # crash rank 1 mid-run, recover, replay
//	go run ./cmd/chaos -crash 1@40%,2@3ms  # cascade: rank 1 mid-run, rank 2 at 3ms
//	go run ./cmd/chaos -crash-storm 3   # seeded 3-crash cascade on random ranks
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"amtlci/internal/bench"
	"amtlci/internal/chaos"
	"amtlci/internal/core/stack"
	"amtlci/internal/expd"
	"amtlci/internal/fabric"
	"amtlci/internal/metrics"
	"amtlci/internal/rel"
	"amtlci/internal/sim"
)

func main() {
	seed := flag.Uint64("seed", chaos.DefaultSeed, "fault schedule seed (printed for reproduction)")
	rate := flag.Float64("rate", -1, "single fault rate in percent for drop/dup/corrupt/reorder (-1 sweeps 0.5,1,2)")
	quick := flag.Bool("quick", false, "one 2% point per backend on the Cholesky graph")
	sever := flag.Bool("sever", false, "sever link 0->1 and demonstrate the clean PeerUnreachable abort")
	crash := flag.String("crash", "", "crash-recovery demonstration: comma-separated rank@time list, e.g. 1@3ms, 1@40% (percent of the fault-free makespan), or 1@40%,2@3ms for a cascade")
	storm := flag.Int("crash-storm", 0, "crash-recovery demonstration: seeded cascade of this many crashes on distinct random ranks (uses -seed)")
	steal := flag.Bool("steal", false, "enable inter-rank work stealing (idle ranks pull ready tasks from loaded peers)")
	metricsDir := flag.String("metrics", "", "dump per-run metric summaries as CSV into this directory (e.g. results)")
	j := flag.Int("j", 1, "parallel sweep workers for the rate sweep (0 = one per CPU); output is identical for every value")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	crashes, err := checkFlags(*crash, *storm, *rate, *quick, *sever, set)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		os.Exit(2)
	}

	// The seed is the replay handle for every mode, so it prints before any
	// branch can exit — a failure without its seed cannot be reproduced.
	fmt.Printf("seed %#x\n", *seed)

	if *sever {
		os.Exit(runSever(*seed))
	}
	if *crash != "" || *storm > 0 {
		os.Exit(runCrash(crashes, *storm, *seed, *metricsDir, *steal))
	}

	// The rate sweep is an expd chaos spec: one point per (backend,
	// workload), each measuring its fault-free baseline and then every rate.
	spec := expd.Spec{Kind: expd.KindChaos, Seed: *seed, Steal: *steal}
	if *rate >= 0 {
		spec.Rates = []float64{*rate}
	}
	if *quick {
		spec.Rates, spec.Workloads = []float64{2}, []string{"cholesky"}
	}
	canon, err := spec.Canonical()
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		os.Exit(2)
	}
	pts := canon.Points()

	fmt.Printf("%-8s %-9s %6s %10s %9s %6s %6s %6s %7s %6s  %s\n",
		"backend", "workload", "rate", "makespan", "slowdown",
		"drop", "dup", "corr", "retrans", "steals", "verdict")
	// Each point's error arrives through Done, so a broken point prints in
	// its row; EvalPoints' own error is the first of those.
	errs := make([]error, len(pts))
	results, _ := expd.EvalPoints(context.Background(), *j, pts, nil, expd.EvalHooks{
		Done: func(i int, _ expd.PointResult, _ bool, err error, _ time.Duration) { errs[i] = err },
	})
	bad := false
	for i, p := range pts {
		b, _ := stack.ParseBackend(p.Backend) // canonical spelling
		if errs[i] != nil {
			fmt.Printf("%-8v %-9v %v\n", b, p.Workload, errs[i])
			bad = true
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
			if *metricsDir != "" {
				if path, err := dumpMetrics(*metricsDir, p, row.RatePct); err != nil {
					fmt.Printf("chaos: metrics dump failed: %v\n", err)
					bad = true
				} else {
					fmt.Println("  metrics -> " + path)
				}
			}
		}
	}
	if bad {
		os.Exit(1)
	}
}

// checkFlags refuses, before any run, the flag combinations in which one
// flag would be silently dropped: -sever, -crash, -crash-storm and the rate
// sweep (-rate, -quick) are exclusive modes, -quick fixes the rate, only the
// rate sweep reads -j, and -sever reads neither -steal nor -metrics. set
// names the flags given on the command line. It parses -crash, so a
// malformed cascade is refused here too, and returns it.
func checkFlags(crash string, storm int, rate float64, quick, sever bool, set map[string]bool) ([]crashPoint, error) {
	crashing := crash != "" || storm > 0
	switch {
	case storm < 0:
		return nil, fmt.Errorf("-crash-storm %d is negative", storm)
	case crash != "" && storm > 0:
		return nil, errors.New("-crash and -crash-storm are exclusive")
	case sever && crashing:
		return nil, errors.New("-sever does not combine with -crash or -crash-storm")
	case quick && rate >= 0:
		return nil, errors.New("-quick fixes the rate at 2%; give -quick or -rate, not both")
	case (sever || crashing) && (quick || rate >= 0):
		return nil, errors.New("-rate and -quick select the rate sweep, not -sever, -crash or -crash-storm")
	case set["j"] && (sever || crashing):
		return nil, errors.New("-j sets the rate sweep's workers; -sever, -crash and -crash-storm do not read it")
	case sever && (set["steal"] || set["metrics"]):
		return nil, errors.New("-sever does not combine with -steal or -metrics")
	case crash == "":
		return nil, nil
	}
	return parseCrashList(crash)
}

// dumpMetrics re-runs the faulted run of chaos point p at ratePct percent —
// the run is deterministic, so this is the registry the sweep measured —
// and writes its full instrument registry as one CSV per (backend,
// workload, rate), returning the path.
func dumpMetrics(dir string, p expd.Point, ratePct float64) (string, error) {
	o, err := p.ChaosOpts(ratePct)
	if err != nil {
		return "", err
	}
	res := chaos.Run(o)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("chaos-metrics-%s-%s-%.1fpct.csv", p.Backend, p.Workload, ratePct)
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	title := fmt.Sprintf("chaos metrics: %v %v %.1f%% faults", o.Backend, o.Workload, ratePct)
	bench.MetricsTable(res.Metrics, title).CSV(f)
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// crashPoint is one parsed "rank@time" entry: the time is either an
// absolute virtual duration (at) or a percentage of the fault-free
// baseline makespan (pct), resolved per (backend, workload) point.
type crashPoint struct {
	rank int
	at   sim.Duration
	pct  float64
}

// parseCrash splits one "rank@time" entry.
func parseCrash(s string) (crashPoint, error) {
	var c crashPoint
	rankStr, atStr, ok := strings.Cut(s, "@")
	if !ok {
		return c, fmt.Errorf("crash spec %q: want rank@time", s)
	}
	rank, err := strconv.Atoi(rankStr)
	if err != nil || rank < 0 {
		return c, fmt.Errorf("crash spec %q: bad rank", s)
	}
	c.rank = rank
	if p, found := strings.CutSuffix(atStr, "%"); found {
		c.pct, err = strconv.ParseFloat(p, 64)
		if err != nil || c.pct <= 0 || c.pct >= 100 {
			return c, fmt.Errorf("crash spec %q: percentage must be in (0,100)", s)
		}
		return c, nil
	}
	d, err := time.ParseDuration(atStr)
	if err != nil || d <= 0 {
		return c, fmt.Errorf("crash spec %q: bad time: %v", s, err)
	}
	c.at = sim.Duration(d.Nanoseconds()) * sim.Nanosecond
	return c, nil
}

// parseCrashList splits a comma-separated cascade of rank@time entries,
// rejecting duplicate ranks (a rank fails at most once).
func parseCrashList(s string) ([]crashPoint, error) {
	var pts []crashPoint
	seen := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		c, err := parseCrash(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if seen[c.rank] {
			return nil, fmt.Errorf("crash spec %q: rank %d crashes twice", s, c.rank)
		}
		seen[c.rank] = true
		pts = append(pts, c)
	}
	return pts, nil
}

// resolveCascade turns the parsed entries (or, for a storm, the seeded
// generator) into concrete crash times against this point's baseline.
func resolveCascade(pts []crashPoint, storm int, seed uint64, base sim.Duration) []chaos.CrashSpec {
	if storm > 0 {
		return chaos.Storm(seed, storm, 4, base)
	}
	cs := make([]chaos.CrashSpec, 0, len(pts))
	for _, p := range pts {
		at := p.at
		if p.pct > 0 {
			at = sim.Duration(float64(base) * p.pct / 100)
		}
		cs = append(cs, chaos.CrashSpec{Rank: p.rank, At: at})
	}
	return cs
}

// fmtCascade renders a resolved cascade for the report table and CSV.
func fmtCascade(cs []chaos.CrashSpec) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = fmt.Sprintf("%d@%v", c.Rank, c.At)
	}
	return strings.Join(parts, ";")
}

// runCrash is the crash-recovery proof: for every (backend, workload) point
// it measures the fault-free baseline, the recovery-armed overhead without a
// crash, the recovered makespan with the crash cascade (the parsed -crash
// entries pts, or a seeded -crash-storm), and an exact replay —
// then writes the whole table as a CSV artifact. With steal, every run of
// a point has work stealing enabled, so the recovered makespan shows how an
// idle survivor drains the dead rank's heir.
func runCrash(pts []crashPoint, storm int, seed uint64, dir string, steal bool) int {
	if dir == "" {
		dir = "results"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		return 1
	}
	path := filepath.Join(dir, "chaos-crash-summary.csv")
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		return 1
	}
	defer f.Close()
	fmt.Fprintln(f, "backend,workload,crashes,baseline_makespan,armed_makespan,recovered_makespan,armed_overhead,recovered_slowdown,restarts,rounds_aborted,peer_deaths,ckpt_sent,ckpt_bytes,ckpt_stored,rereplicated,orphaned,tasks_restored,stale_dropped,steals,steal_tasks,rel_err,verified,replay_identical")

	fmt.Printf("%-8s %-9s %-22s %10s %10s %10s %8s %4s %4s %5s %6s %6s %6s  %s\n",
		"backend", "workload", "crashes", "baseline", "armed", "recovered",
		"slowdown", "rst", "abrt", "death", "ckpt", "restor", "steals", "verdict")
	bad := false
	for _, b := range stack.Backends {
		for _, w := range chaos.Workloads {
			base := chaos.Run(chaos.Opts{Backend: b, Workload: w, Steal: steal})
			if base.Err != nil || !base.Verified {
				fmt.Printf("%-8v %-9v fault-free baseline broken: %v\n", b, w, base.Err)
				bad = true
				continue
			}
			armed := chaos.Run(chaos.Opts{Backend: b, Workload: w, Recover: true, Steal: steal})
			if restarts := armed.Metrics.Total("parsec", "restarts"); armed.Err != nil || !armed.Verified || restarts != 0 {
				fmt.Printf("%-8v %-9v recovery-armed healthy run broken: %v (restarts %d)\n",
					b, w, armed.Err, restarts)
				bad = true
				continue
			}
			cascade := resolveCascade(pts, storm, seed, base.Makespan)
			o := chaos.Opts{Backend: b, Workload: w, Crashes: cascade, Recover: true, Steal: steal}
			res := chaos.Run(o)
			replay := chaos.Run(o)
			// The replay must reproduce the makespan and the whole registry.
			replayDiff := metrics.Diff(res.Metrics, replay.Metrics)
			if replay.Makespan != res.Makespan {
				replayDiff = fmt.Sprintf("makespan %v vs %v", replay.Makespan, res.Makespan)
			}
			m := res.Metrics
			restarts, aborted := m.Total("parsec", "restarts"), m.Total("parsec", "recovery_rounds_aborted")
			deaths, ckptSent := m.Total("rel", "peer_dead"), m.Total("recover", "ckpt_sent")
			restored, steals := m.Total("parsec", "tasks_restored"), m.Total("parsec", "steals")

			verdict := "verified"
			switch {
			case res.Err != nil:
				verdict = "ABORT: " + res.Err.Error()
				bad = true
			case !res.Verified:
				verdict = fmt.Sprintf("WRONG (rel err %g)", res.RelErr)
				bad = true
			case restarts < 1 || restarts > uint64(len(cascade)):
				// A round can absorb several deaths, so restarts ranges from
				// 1 (everything folded) to one per crash.
				verdict = fmt.Sprintf("restarts %d, want 1..%d", restarts, len(cascade))
				bad = true
			case replayDiff != "":
				verdict = "REPLAY DIVERGED: " + replayDiff
				bad = true
			}
			fmt.Printf("%-8v %-9v %-22s %10v %10v %10v %7.2fx %4d %4d %5d %6d %6d %6d  %s\n",
				b, w, fmtCascade(cascade), base.Makespan, armed.Makespan, res.Makespan,
				float64(res.Makespan)/float64(base.Makespan),
				restarts, aborted, deaths, ckptSent, restored, steals, verdict)
			fmt.Fprintf(f, "%v,%v,%s,%v,%v,%v,%.4f,%.4f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%g,%t,%t\n",
				b, w, fmtCascade(cascade), base.Makespan, armed.Makespan, res.Makespan,
				float64(armed.Makespan)/float64(base.Makespan),
				float64(res.Makespan)/float64(base.Makespan),
				restarts, aborted, deaths, ckptSent, m.Total("recover", "ckpt_bytes"),
				m.Total("recover", "ckpt_stored"), m.Total("recover", "ckpt_rereplicated"),
				m.Total("recover", "ckpt_orphaned"), restored, m.Total("parsec", "stale_drops"),
				steals, m.Total("parsec", "steal_tasks"), res.RelErr, res.Verified, replayDiff == "")
		}
	}
	fmt.Printf("summary -> %s\n", path)
	if bad {
		return 1
	}
	return 0
}

// runSever demonstrates the failure path: a permanently severed link must
// surface rel.PeerUnreachable as a clean graph abort, never a hang.
func runSever(seed uint64) int {
	for _, b := range stack.Backends {
		rc := rel.DefaultConfig()
		res := chaos.Run(chaos.Opts{
			Backend: b, Workload: chaos.Cholesky,
			Faults: &fabric.FaultConfig{
				Seed:  seed,
				Links: []fabric.LinkFault{{Src: 0, Dst: 1, Sever: true}},
			},
			Rel: &rc,
		})
		var pu *rel.PeerUnreachable
		switch {
		case res.Err == nil:
			fmt.Printf("%-8v severed link 0->1 but the graph claims success\n", b)
			return 1
		case !errors.As(res.Err, &pu):
			fmt.Printf("%-8v abort lacks PeerUnreachable: %v\n", b, res.Err)
			return 1
		default:
			fmt.Printf("%-8v clean abort after %d attempts: %v\n", b, pu.Attempts, res.Err)
		}
	}
	return 0
}
