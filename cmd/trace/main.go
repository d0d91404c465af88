// Command trace executes a HiCMA TLR Cholesky on the simulated cluster and
// writes a Chrome trace (chrome://tracing, Perfetto) of every task
// execution, GET DATA request, data arrival, and ACTIVATE message, plus
// counter tracks sampled from the runtime-wide metrics registry (comm-thread
// busy fraction, queue depths, traffic rates). It is the runtime's visual
// debugger: worker occupancy, communication stalls, and the panel wavefront
// are all visible at a glance. The recording machinery lives in
// internal/ctrace.
//
//	go run ./cmd/trace -o trace.json -n 36000 -nb 1200 -nodes 4
//	# then load trace.json in chrome://tracing or ui.perfetto.dev
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"amtlci/internal/core/stack"
	"amtlci/internal/ctrace"
	"amtlci/internal/hicma"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
)

func main() {
	out := flag.String("o", "trace.json", "output file")
	n := flag.Int("n", 36000, "matrix dimension")
	nb := flag.Int("nb", 1200, "tile size")
	nodes := flag.Int("nodes", 4, "simulated nodes")
	workers := flag.Int("workers", 16, "workers per node (small keeps traces readable)")
	backend := flag.String("backend", "lci", `"lci" or "mpi"`)
	sample := flag.Float64("sample", 100, "metrics sampling period in virtual microseconds (0 disables counter tracks)")
	flag.Parse()

	be, err := stack.ParseBackend(*backend)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	pool := hicma.NewVirtual(hicma.DefaultParams(*n, *nb), *nodes)
	s := stack.New(be, *nodes)
	pcfg := parsec.DefaultConfig(*workers)
	pcfg.Metrics = s.Metrics
	rt := parsec.New(s.Eng, s.Engines, pool, pcfg)

	tr, err := ctrace.Record(rt, pool, s.Eng, s.Metrics, sim.Duration(*sample*float64(sim.Microsecond)))
	if err != nil {
		log.Fatal(err)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := ctrace.Write(f, tr.Events); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v backend: %v virtual time, %d events (%d counter samples) -> %s\n",
		be, tr.Elapsed, len(tr.Events), tr.Counters, *out)
	if tr.UnknownClass > 0 || tr.UnmatchedEnd > 0 {
		fmt.Fprintf(os.Stderr,
			"trace: warning: %d task(s) with class index outside the %d-entry name table, %d TaskEnd(s) without a matching TaskStart\n",
			tr.UnknownClass, len(pool.Classes()), tr.UnmatchedEnd)
	}
	fmt.Println("open in chrome://tracing or https://ui.perfetto.dev")
}
