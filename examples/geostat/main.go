// Geostatistics TLR Cholesky end-to-end: generates an st-2d-sqexp covariance
// matrix (the paper's HiCMA workload), compresses its off-diagonal tiles to
// low rank, factorizes it with the tile-low-rank Cholesky on a simulated
// four-node cluster, and verifies the factor against the dense matrix.
//
// This is the real-numerics miniature of the paper's N=360,000 experiments:
// identical algorithms and communication, laptop-sized matrix.
//
//	go run ./examples/geostat
package main

import (
	"fmt"
	"log"
	"math"

	"amtlci/internal/core/stack"
	"amtlci/internal/hicma"
	"amtlci/internal/linalg"
	"amtlci/internal/parsec"
	"amtlci/internal/tlr"
)

func main() {
	const (
		n     = 144
		nb    = 24
		ranks = 4
	)
	prob := tlr.NewProblem(n, 0.4, 1e-2)

	par := hicma.DefaultParams(n, nb)
	par.Acc = 1e-9
	par.MaxRank = nb

	input := hicma.NewInput(par, prob)
	pool := hicma.NewReal(input, ranks)

	// Report the compression the generator achieved.
	var ranksSum, cnt int
	maxRank := 0
	for m := 1; m < n/nb; m++ {
		for c := 0; c < m; c++ {
			r := input.Rank(m, c)
			ranksSum += r
			cnt++
			maxRank = max(maxRank, r)
		}
	}
	fmt.Printf("st-2d-sqexp covariance %dx%d, tiles %dx%d: avg off-diagonal rank %.1f (max %d) at acc %.0e\n",
		n, n, nb, nb, float64(ranksSum)/float64(cnt), maxRank, par.Acc)

	s := stack.New(stack.LCI, ranks)
	rt := parsec.New(s.Eng, s.Engines, pool, parsec.DefaultConfig(4))
	elapsed, err := rt.Run()
	if err != nil {
		log.Fatal(err)
	}

	// Verify the lower triangle of L L^T against the covariance matrix.
	l := pool.AssembleFactor()
	recon := linalg.NewMatrix(n, n)
	linalg.GEMM(recon, l, l, 1, false, true)
	a := prob.Block(0, 0, n, n)
	var num, den float64
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d := recon.At(i, j) - a.At(i, j)
			num += d * d
			den += a.At(i, j) * a.At(i, j)
		}
	}
	relErr := math.Sqrt(num / den)

	m := rt.Metrics()
	fmt.Printf("TLR Cholesky: %d tasks on %d simulated nodes, %v virtual time, %d bytes fetched\n",
		m.Total("parsec", "tasks_run"), ranks, elapsed, m.Total("parsec", "bytes_fetched"))
	fmt.Printf("factorization error %.2e (accuracy target %.0e)\n", relErr, par.Acc)
	if relErr > 1e-5 {
		log.Fatalf("verification FAILED")
	}
	fmt.Println("verification passed")
}
