package expd

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"amtlci/internal/bench"
	"amtlci/internal/chaos"
	"amtlci/internal/core/stack"
	"amtlci/internal/metrics"
	"amtlci/internal/sim"
)

// crashEntry is one parsed "rank@time" entry of a crashes list: the time
// is either an absolute virtual duration (at) or a percentage of the
// fault-free baseline makespan (pct), resolved per point.
type crashEntry struct {
	rank int
	at   time.Duration
	pct  float64
}

// String is the entry's canonical spelling, which parses back to itself.
func (c crashEntry) String() string {
	if c.pct > 0 {
		return fmt.Sprintf("%d@%s%%", c.rank, strconv.FormatFloat(c.pct, 'g', -1, 64))
	}
	return fmt.Sprintf("%d@%v", c.rank, c.at)
}

// parseCrashes parses a crashes list of "rank@time" entries in order,
// rejecting a rank that crashes twice (a rank fails at most once).
func parseCrashes(list []string) ([]crashEntry, error) {
	var out []crashEntry
	seen := map[int]bool{}
	for _, s := range list {
		rankStr, atStr, ok := strings.Cut(strings.TrimSpace(s), "@")
		if !ok {
			return nil, fmt.Errorf("expd: crash %q: want rank@time", s)
		}
		var c crashEntry
		var err error
		if c.rank, err = strconv.Atoi(rankStr); err != nil || c.rank < 0 {
			return nil, fmt.Errorf("expd: crash %q: bad rank", s)
		}
		if p, found := strings.CutSuffix(atStr, "%"); found {
			if c.pct, err = strconv.ParseFloat(p, 64); err != nil || !(c.pct > 0 && c.pct < 100) {
				return nil, fmt.Errorf("expd: crash %q: percentage must be in (0,100)", s)
			}
		} else if c.at, err = time.ParseDuration(atStr); err != nil || c.at <= 0 {
			return nil, fmt.Errorf("expd: crash %q: bad time: %v", s, err)
		}
		if seen[c.rank] {
			return nil, fmt.Errorf("expd: crash %q: rank %d crashes twice", s, c.rank)
		}
		seen[c.rank] = true
		out = append(out, c)
	}
	return out, nil
}

// cascade resolves p's crashes (or, for a storm, the seeded generator over
// chaos.Ranks) into concrete crash times against the point's fault-free
// baseline makespan.
func (p Point) cascade(base sim.Duration) ([]chaos.CrashSpec, error) {
	if p.Storm > 0 {
		seed := p.Seed
		if seed == 0 {
			seed = chaos.DefaultSeed
		}
		return chaos.Storm(seed, p.Storm, base), nil
	}
	entries, err := parseCrashes(p.Crashes)
	if err != nil {
		return nil, err
	}
	cs := make([]chaos.CrashSpec, 0, len(entries))
	for _, e := range entries {
		at := sim.Duration(e.at.Nanoseconds()) * sim.Nanosecond
		if e.pct > 0 {
			at = sim.Duration(float64(base) * e.pct / 100)
		}
		cs = append(cs, chaos.CrashSpec{Rank: e.rank, At: at})
	}
	return cs, nil
}

// crashCounters are the recovered run's counters a crash point reports, in
// summary-CSV column order: column, layer, instrument.
var crashCounters = [][3]string{
	{"restarts", "parsec", "restarts"},
	{"rounds_aborted", "parsec", "recovery_rounds_aborted"},
	{"peer_deaths", "rel", "peer_dead"},
	{"ckpt_sent", "recover", "ckpt_sent"},
	{"ckpt_bytes", "recover", "ckpt_bytes"},
	{"ckpt_stored", "recover", "ckpt_stored"},
	{"rereplicated", "recover", "ckpt_rereplicated"},
	{"orphaned", "recover", "ckpt_orphaned"},
	{"tasks_restored", "parsec", "tasks_restored"},
	{"stale_dropped", "parsec", "stale_drops"},
	{"steals", "parsec", "steals"},
	{"steal_tasks", "parsec", "steal_tasks"},
}

// CrashPointResult is a crash point's recovery proof: the makespans of the
// fault-free baseline, of the recovery-armed run without a crash and of
// the recovered run with the resolved cascade ("rank@time;..."), and the
// recovered run's counters by crashCounters column.
type CrashPointResult struct {
	Cascade                    string
	Baseline, Armed, Recovered sim.Duration
	Counters                   map[string]uint64
	RelErr                     float64
	Verified                   bool
	// ReplayIdentical reports that a second run of the cascade reproduced
	// the makespan and the whole registry.
	ReplayIdentical bool
	// Verdict is "verified", or the first check the recovered run failed.
	Verdict string
}

// evalCrash runs crash point p's proof on backend b over workload w. Every
// run of the point steals when the point asks for it, so the recovered
// makespan shows how an idle survivor drains the dead rank's heir. A broken
// baseline or armed run is an error; a recovered run that fails a check is
// a result whose Verdict names the check.
func evalCrash(p Point, b stack.Backend, w chaos.Workload) (*CrashPointResult, error) {
	base := chaos.Run(chaos.Opts{Backend: b, Workload: w, Steal: p.Steal})
	if base.Err != nil || !base.Verified {
		return nil, fmt.Errorf("expd: fault-free baseline broken: %v", base.Err)
	}
	armed := chaos.Run(chaos.Opts{Backend: b, Workload: w, Recover: true, Steal: p.Steal})
	if restarts := armed.Metrics.Total("parsec", "restarts"); armed.Err != nil || !armed.Verified || restarts != 0 {
		return nil, fmt.Errorf("expd: recovery-armed healthy run broken: %v (restarts %d)", armed.Err, restarts)
	}
	cascade, err := p.cascade(base.Makespan)
	if err != nil {
		return nil, err
	}
	o := chaos.Opts{Backend: b, Workload: w, Crashes: cascade, Recover: true, Steal: p.Steal}
	res := chaos.Run(o)
	replay := chaos.Run(o)
	// The replay must reproduce the makespan and the whole registry.
	replayDiff := metrics.Diff(res.Metrics, replay.Metrics)
	if replay.Makespan != res.Makespan {
		replayDiff = fmt.Sprintf("makespan %v vs %v", replay.Makespan, res.Makespan)
	}
	parts := make([]string, len(cascade))
	for i, c := range cascade {
		parts[i] = fmt.Sprintf("%d@%v", c.Rank, c.At)
	}
	r := &CrashPointResult{
		Cascade:  strings.Join(parts, ";"),
		Baseline: base.Makespan, Armed: armed.Makespan, Recovered: res.Makespan,
		Counters: map[string]uint64{},
		RelErr:   finite(res.RelErr), Verified: res.Verified,
		ReplayIdentical: replayDiff == "",
		Verdict:         "verified",
	}
	for _, c := range crashCounters {
		r.Counters[c[0]] = res.Metrics.Total(c[1], c[2])
	}
	restarts := r.Counters["restarts"]
	switch {
	case res.Err != nil:
		r.Verdict = "ABORT: " + res.Err.Error()
	case !res.Verified:
		r.Verdict = fmt.Sprintf("WRONG (rel err %g)", res.RelErr)
	case restarts < 1 || restarts > uint64(len(cascade)):
		// A round can absorb several deaths, so restarts ranges from 1
		// (everything folded) to one per crash.
		r.Verdict = fmt.Sprintf("restarts %d, want 1..%d", restarts, len(cascade))
	case replayDiff != "":
		r.Verdict = "REPLAY DIVERGED: " + replayDiff
	}
	return r, nil
}

// chaosFigures renders chaos spec s: a rate spec as "chaos-rates", one row
// per point and fault rate, or a crash spec as "chaos-crash-summary", the
// chaos-crash-summary CSV with one row per point that reached its recovered
// run. A point whose baseline or armed run broke has no result and no row;
// like every failed verdict, its error is one of the figure's Failures.
func chaosFigures(s Spec, results []PointResult, errs []error) ([]Figure, error) {
	pts := s.Points()
	if len(results) != len(pts) {
		return nil, fmt.Errorf("expd: %d results, want %d", len(results), len(pts))
	}
	f := Figure{Name: "chaos-rates", Table: bench.NewTable("chaos fault-rate sweep", "backend", "workload",
		"rate", "makespan", "slowdown", "drop", "dup", "corr", "retrans", "steals", "verdict")}
	if s.crashing() {
		cols := []string{"backend", "workload", "crashes", "baseline_makespan", "armed_makespan",
			"recovered_makespan", "armed_overhead", "recovered_slowdown"}
		for _, c := range crashCounters {
			cols = append(cols, c[0])
		}
		f = Figure{Name: "chaos-crash-summary", Table: bench.NewTable("chaos crash summary",
			append(cols, "rel_err", "verified", "replay_identical")...)}
	}
	for i, p := range pts {
		b, _ := stack.ParseBackend(p.Backend) // canonical spelling
		fail := func(at, msg string) {
			f.Failures = append(f.Failures, fmt.Sprintf("%v %s%s: %s", b, p.Workload, at, msg))
		}
		if r := results[i].Crash; r != nil {
			row := []string{b.String(), p.Workload, r.Cascade,
				r.Baseline.String(), r.Armed.String(), r.Recovered.String(),
				fmt.Sprintf("%.4f", float64(r.Armed)/float64(r.Baseline)),
				fmt.Sprintf("%.4f", float64(r.Recovered)/float64(r.Baseline))}
			for _, c := range crashCounters {
				row = append(row, strconv.FormatUint(r.Counters[c[0]], 10))
			}
			f.Table.AddRow(append(row, fmt.Sprintf("%g", r.RelErr),
				strconv.FormatBool(r.Verified), strconv.FormatBool(r.ReplayIdentical))...)
			if r.Verdict != "verified" {
				fail("", r.Verdict)
			}
		}
		if r := results[i].Chaos; r != nil {
			for _, row := range r.Rows {
				verdict, detail := "verified", ""
				if row.Err != "" {
					verdict, detail = "ABORT", "ABORT: "+row.Err
				} else if !row.Verified {
					verdict, detail = "WRONG", fmt.Sprintf("WRONG (rel err %g)", row.RelErr)
				}
				rate := fmt.Sprintf("%.1f%%", row.RatePct)
				f.Table.AddRow(b.String(), p.Workload, rate,
					(sim.Duration(row.MakespanNS) * sim.Nanosecond).String(), fmt.Sprintf("%.2fx", row.Slowdown),
					strconv.FormatUint(row.Dropped, 10), strconv.FormatUint(row.Duplicated, 10),
					strconv.FormatUint(row.Corrupted, 10), strconv.FormatUint(row.Retransmits, 10),
					strconv.FormatUint(row.Steals, 10), verdict)
				if detail != "" {
					fail(" "+rate, detail)
				}
			}
		}
		if i < len(errs) && errs[i] != nil {
			fail("", errs[i].Error())
		}
	}
	return []Figure{f}, nil
}
