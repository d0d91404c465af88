// Command collbench sweeps the collective-communication subsystem
// (internal/coll): operation x algorithm x payload size x rank count x
// backend, in virtual time. It is the calibration tool for the selector
// crossovers in coll.DefaultTune — every concrete algorithm is measured
// alongside the selector's pick, so a mistuned threshold is visible as an
// "auto" row slower than the best concrete row.
//
// Usage:
//
//	collbench [-ranks 4,16,64] [-iters N] [-j N] [-csv] [-check] [-quick]
//
// The flags build an internal/expd coll spec, the same sweep the simd
// service runs. With -csv the sweep is emitted as one CSV table on stdout
// (deterministic for a fixed seed); otherwise as one aligned text table.
// -check exits nonzero if the selector picked a slower algorithm at the
// latency or bandwidth extreme of the payload sweep.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"amtlci/internal/bench"
	"amtlci/internal/core/stack"
	"amtlci/internal/expd"
)

func parseRanks(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 2 {
			fmt.Fprintf(os.Stderr, "collbench: bad rank count %q\n", f)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

// quickSpec is -quick's subset: 2 rank counts, every other size, 1
// iteration.
func quickSpec() expd.Spec {
	s := expd.Spec{Kind: expd.KindColl, Ranks: []int{4, 16}, Iters: 1}
	for i, size := range bench.CollSizes() {
		if i%2 == 0 {
			s.Sizes = append(s.Sizes, expd.Size(size))
		}
	}
	return s
}

func main() {
	ranksFlag := flag.String("ranks", "4,16,64", "comma-separated rank counts")
	iters := flag.Int("iters", 3, "back-to-back operations per measurement")
	csv := flag.Bool("csv", false, "emit one CSV table on stdout")
	check := flag.Bool("check", false, "exit nonzero if the selector picked a slower algorithm")
	quick := flag.Bool("quick", false, "fast sweep: 2 rank counts, every other size, 1 iteration")
	j := flag.Int("j", 1, "parallel sweep workers (0 = one per CPU); output is identical for every value")
	flag.Parse()

	s := expd.Spec{Kind: expd.KindColl, Ranks: parseRanks(*ranksFlag), Iters: *iters}
	if *quick {
		s = quickSpec()
	}
	canon, err := s.Canonical()
	if err != nil {
		fmt.Fprintf(os.Stderr, "collbench: %v\n", err)
		os.Exit(2)
	}
	pts := canon.Points()
	results, err := expd.EvalPoints(context.Background(), *j, pts, nil, expd.EvalHooks{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "collbench: %v\n", err)
		os.Exit(1)
	}

	tbl := bench.NewTable("collectives sweep — mean completion time",
		"backend", "op", "ranks", "bytes", "algorithm", "picked", "time_us")
	for i, p := range pts {
		b, _ := stack.ParseBackend(p.Backend) // canonical spelling
		for _, r := range results[i].Coll {
			tbl.AddRow(b.String(), p.Op, strconv.Itoa(p.Ranks), strconv.FormatInt(p.Size, 10),
				r.Algo, r.Picked, fmt.Sprintf("%.3f", r.TimeUS))
		}
	}
	if *csv {
		tbl.CSV(os.Stdout)
	} else {
		tbl.Write(os.Stdout)
	}

	if *check {
		notes, extreme := selectorMisses(pts, results)
		for _, n := range notes {
			fmt.Fprintln(os.Stderr, n)
		}
		fmt.Fprintf(os.Stderr,
			"collbench: selector matched the fastest algorithm everywhere but %d points (%d at size extremes)\n",
			len(notes), extreme)
		if extreme > 0 {
			os.Exit(1)
		}
	}
}

// atExtreme reports whether a point of operation op at payload size is
// where the selector must be right: the latency (smallest) and bandwidth
// (largest) ends of bench.CollSizes, whatever subset was swept. Mid-range
// crossovers within measurement noise of each other are informational, and
// a barrier has no payload.
func atExtreme(op string, size int64) bool {
	sizes := bench.CollSizes()
	return op != "barrier" && (size == sizes[0] || size == sizes[len(sizes)-1])
}

// selectorMisses returns one note per point where the selector's "auto"
// pick (each point's last row) is not the fastest concrete algorithm (the
// first of equals), in point order, and how many of them are at a size
// extreme.
func selectorMisses(pts []expd.Point, results []expd.PointResult) (notes []string, extreme int) {
	for i, p := range pts {
		rows := results[i].Coll
		auto, algos := rows[len(rows)-1], rows[:len(rows)-1]
		best := algos[0]
		var picked expd.CollRow
		for _, r := range algos {
			if r.TimeUS < best.TimeUS {
				best = r
			}
			if r.Algo == auto.Picked {
				picked = r
			}
		}
		if auto.Picked == best.Algo {
			continue
		}
		severity := "note:"
		if atExtreme(p.Op, p.Size) {
			severity = "MISS:"
			extreme++
		}
		b, _ := stack.ParseBackend(p.Backend)
		notes = append(notes, fmt.Sprintf(
			"collbench: %s selector picked %s for %v/%s n=%d size=%d; %s is faster (%.3fµs vs %.3fµs)",
			severity, auto.Picked, b, p.Op, p.Ranks, p.Size, best.Algo, best.TimeUS, picked.TimeUS))
	}
	return notes, extreme
}
