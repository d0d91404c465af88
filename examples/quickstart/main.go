// Quickstart: build a tiny distributed task graph, run it on both
// communication backends, and compare the virtual execution.
//
// The graph is a two-rank pipeline with a broadcast: rank 0 produces a
// block of data, both ranks transform slices of it, and rank 1 reduces the
// results. Payloads are real bytes, so the output proves the data actually
// moved through the simulated network stack.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"amtlci/internal/core/stack"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
)

func main() {
	for _, backend := range []stack.Backend{stack.LCI, stack.MPI} {
		run(backend)
	}
}

func run(backend stack.Backend) {
	const ranks = 2

	// A deployment = simulated cluster + one communication engine per rank.
	s := stack.New(backend, ranks)

	// Describe the task graph. GraphPool is the dynamic-insertion interface;
	// large algorithms implement parsec.Taskpool directly instead.
	g := parsec.NewGraphPool("quickstart", ranks, true /* real payloads */)

	const blob = 64 << 10
	produce := g.AddTask(0, 0, 50*sim.Microsecond, 10, blob)
	left := g.AddTask(1, 0, 200*sim.Microsecond, 5, 8)
	right := g.AddTask(2, 1, 200*sim.Microsecond, 5, 8)
	reduce := g.AddTask(3, 1, 20*sim.Microsecond, 1)
	g.Link(produce, 0, left)
	g.Link(produce, 0, right)
	g.Link(left, 0, reduce)
	g.Link(right, 0, reduce)

	var checksum uint64
	g.ExecuteFn = func(t parsec.TaskID, in, out []parsec.DataRef) {
		switch t {
		case produce:
			for i := range out[0].Buf.Bytes {
				out[0].Buf.Bytes[i] = byte(i)
			}
		case left, right:
			// Sum one half of the blob into an 8-byte result.
			half := in[0].Buf.Bytes[:blob/2]
			if t == right {
				half = in[0].Buf.Bytes[blob/2:]
			}
			var sum uint64
			for _, b := range half {
				sum += uint64(b)
			}
			for i := 0; i < 8; i++ {
				out[0].Buf.Bytes[i] = byte(sum >> (8 * i))
			}
		case reduce:
			checksum = word(in[0].Buf.Bytes) + word(in[1].Buf.Bytes)
			fmt.Printf("  reduce: checksum %d\n", checksum)
		}
	}

	// Run it: 4 workers per rank, deterministic.
	cfg := parsec.DefaultConfig(4)
	rt := parsec.New(s.Eng, s.Engines, g, cfg)
	elapsed, err := rt.Run()
	if err != nil {
		log.Fatal(err)
	}

	m := rt.Metrics()
	fmt.Printf("%v backend: %d tasks in %v of virtual time; rank1 fetched %d bytes; mean e2e latency %.1f µs\n",
		backend, m.Total("parsec", "tasks_run"), elapsed,
		m.Value("parsec", "bytes_fetched", 1), rt.Tracer().EndToEnd().Mean())

	// The blob holds byte(i) for every i, so it sums to 256 times 0+1+...+255.
	if want := uint64(blob / 256 * (255 * 256 / 2)); checksum != want {
		log.Fatalf("verification FAILED: checksum %d, want %d", checksum, want)
	}
}

func word(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
