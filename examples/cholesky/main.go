// Distributed dense Cholesky with verification: factors a real symmetric
// positive-definite matrix with the tile algorithm across four simulated
// ranks, on both communication backends, and checks L L^T against the
// original matrix. Every tile moved between ranks travels through the full
// simulated communication stack.
//
//	go run ./examples/cholesky
package main

import (
	"fmt"
	"log"

	"amtlci/internal/cholesky"
	"amtlci/internal/core/stack"
	"amtlci/internal/linalg"
	"amtlci/internal/parsec"
	"amtlci/internal/tlr"
)

func main() {
	const (
		tiles = 6
		nb    = 12
		ranks = 4
	)
	n := tiles * nb
	prob := tlr.NewProblem(n, 0.3, 1e-2)
	input := cholesky.NewInput(tiles, nb, prob.Entry)

	for _, backend := range []stack.Backend{stack.LCI, stack.MPI} {
		pool := cholesky.NewReal(input, ranks, 30)
		s := stack.New(backend, ranks)
		rt := parsec.New(s.Eng, s.Engines, pool, parsec.DefaultConfig(4))
		elapsed, err := rt.Run()
		if err != nil {
			log.Fatal(err)
		}

		l := pool.AssembleFactor()
		recon := linalg.NewMatrix(n, n)
		linalg.GEMM(recon, l, l, 1, false, true)
		a := prob.Block(0, 0, n, n)
		relErr := linalg.Sub(recon, a).FrobNorm() / a.FrobNorm()

		fmt.Printf("%v backend: %dx%d matrix, %d tiles, %d tasks on %d ranks\n",
			backend, n, n, tiles*tiles, rt.Metrics().Total("parsec", "tasks_run"), ranks)
		fmt.Printf("  virtual time %v, ||L·Lᵀ − A|| / ||A|| = %.2e\n", elapsed, relErr)
		if relErr > 1e-10 {
			log.Fatalf("factorization verification FAILED (%g)", relErr)
		}
		fmt.Println("  verification passed")
	}
}
