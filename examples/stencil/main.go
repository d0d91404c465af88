// Iterative halo-exchange stencil: the classic AMT communication pattern
// the paper's introduction motivates — many small messages per step, with
// neighbor dataflows instead of bulk-synchronous barriers.
//
// A 1-D domain is split into blocks across simulated ranks; each task
// averages its block with a 3-point stencil and publishes three output
// flows: the interior (consumed by itself next iteration, staying local)
// and the two 8-byte edge cells (consumed by the neighbors, crossing the
// network). The result is verified against a serial reference.
//
//	go run ./examples/stencil
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"

	"amtlci/internal/core/stack"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
)

const (
	blocks    = 8
	blockLen  = 64
	iters     = 20
	ranks     = 4
	cells     = blocks * blockLen
	taskCost  = 30 * sim.Microsecond
	flowBlock = 0 // whole block, stays on the owning rank
	flowLeft  = 1 // leftmost cell, goes to block b-1
	flowRight = 2 // rightmost cell, goes to block b+1
)

func id(it, b int) int64 { return int64(it)*blocks + int64(b) }

func put(b []byte, i int, v float64) {
	binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
}
func get(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
}

func initial(global int) float64 { return math.Sin(float64(global) * 0.1) }

func main() {
	g := parsec.NewGraphPool("stencil", ranks, true)

	// Tasks: (iteration, block) on rank b%ranks, with three output flows.
	for it := 0; it < iters; it++ {
		for b := 0; b < blocks; b++ {
			g.AddTask(id(it, b), b%ranks, taskCost, int64(iters-it),
				blockLen*8, 8, 8)
		}
	}
	// Dataflow edges: block to itself, edges to neighbors (periodic ends
	// omitted: boundary blocks just see one neighbor).
	for it := 1; it < iters; it++ {
		for b := 0; b < blocks; b++ {
			g.Link(parsec.TaskID{Index: id(it-1, b)}, flowBlock, parsec.TaskID{Index: id(it, b)})
			if b > 0 {
				g.Link(parsec.TaskID{Index: id(it-1, b-1)}, flowRight, parsec.TaskID{Index: id(it, b)})
			}
			if b < blocks-1 {
				g.Link(parsec.TaskID{Index: id(it-1, b+1)}, flowLeft, parsec.TaskID{Index: id(it, b)})
			}
		}
	}

	final := make([][]float64, blocks)
	g.ExecuteFn = func(t parsec.TaskID, in, out []parsec.DataRef) {
		it := int(t.Index) / blocks
		b := int(t.Index) % blocks

		// Assemble the extended block [left halo | block | right halo].
		cur := make([]float64, blockLen)
		var left, right float64
		hasL, hasR := b > 0, b < blocks-1
		if it == 0 {
			for i := range cur {
				cur[i] = initial(b*blockLen + i)
			}
			if hasL {
				left = initial(b*blockLen - 1)
			}
			if hasR {
				right = initial((b + 1) * blockLen)
			}
		} else {
			// Inputs arrive in Link order: own block, then left neighbor's
			// right edge (if any), then right neighbor's left edge (if any).
			for i := range cur {
				cur[i] = get(in[0].Buf.Bytes, i)
			}
			next := 1
			if hasL {
				left = get(in[next].Buf.Bytes, 0)
				next++
			}
			if hasR {
				right = get(in[next].Buf.Bytes, 0)
			}
		}

		// 3-point average with clamped boundaries.
		nb := make([]float64, blockLen)
		for i := range nb {
			l, r := left, right
			if i > 0 {
				l = cur[i-1]
			} else if !hasL {
				l = cur[0]
			}
			if i < blockLen-1 {
				r = cur[i+1]
			} else if !hasR {
				r = cur[blockLen-1]
			}
			nb[i] = (l + cur[i] + r) / 3
		}
		for i, v := range nb {
			put(out[flowBlock].Buf.Bytes, i, v)
		}
		put(out[flowLeft].Buf.Bytes, 0, nb[0])
		put(out[flowRight].Buf.Bytes, 0, nb[blockLen-1])
		if it == iters-1 {
			final[b] = nb
		}
	}

	s := stack.New(stack.LCI, ranks)
	rt := parsec.New(s.Eng, s.Engines, g, parsec.DefaultConfig(2))
	elapsed, err := rt.Run()
	if err != nil {
		log.Fatal(err)
	}

	// Serial reference.
	ref := make([]float64, cells)
	for i := range ref {
		ref[i] = initial(i)
	}
	for it := 0; it < iters; it++ {
		nxt := make([]float64, cells)
		for i := range nxt {
			l, r := i-1, i+1
			if l < 0 {
				l = 0
			}
			if r >= cells {
				r = cells - 1
			}
			nxt[i] = (ref[l] + ref[i] + ref[r]) / 3
		}
		ref = nxt
	}
	var maxErr float64
	for b := 0; b < blocks; b++ {
		for i, v := range final[b] {
			if e := math.Abs(v - ref[b*blockLen+i]); e > maxErr {
				maxErr = e
			}
		}
	}

	fmt.Printf("stencil: %d cells, %d iterations, %d tasks on %d ranks\n",
		cells, iters, blocks*iters, ranks)
	fmt.Printf("virtual time %v; %d bytes of halo traffic; max |err| vs serial = %.2e\n",
		elapsed, rt.Metrics().Total("parsec", "bytes_fetched"), maxErr)
	if maxErr > 1e-12 {
		log.Fatal("verification FAILED")
	}
	fmt.Println("verification passed")
}
