package cholesky

import (
	"slices"
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/linalg"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
	"amtlci/internal/tlr"
)

func TestGridPlacement(t *testing.T) {
	g := SquarishGrid(6)
	if g.P*g.Q != 6 {
		t.Fatalf("grid %dx%d", g.P, g.Q)
	}
	seen := map[int]bool{}
	for m := 0; m < 2*g.P; m++ {
		for n := 0; n < 2*g.Q; n++ {
			r := g.RankOf(m, n)
			if r < 0 || r >= 6 {
				t.Fatalf("rank %d out of range", r)
			}
			seen[r] = true
		}
	}
	if len(seen) != 6 {
		t.Fatalf("block-cyclic covered %d of 6 ranks", len(seen))
	}
	if SquarishGrid(16) != (Grid{4, 4}) {
		t.Fatal("16 ranks should give 4x4")
	}
	if SquarishGrid(7) != (Grid{1, 7}) {
		t.Fatal("prime rank count degenerates to 1xN")
	}
}

func TestTaskCounting(t *testing.T) {
	for _, tiles := range []int{1, 2, 3, 5, 8} {
		p := NewVirtual(tiles, 100, 4, 30)
		var sum int64
		for r := 0; r < 4; r++ {
			sum += p.LocalTasks(r)
		}
		if sum != p.TotalTasks() {
			t.Fatalf("T=%d: per-rank sum %d != total %d", tiles, sum, p.TotalTasks())
		}
	}
	// T=3: 3 POTRF + 3 TRSM + 3 SYRK + 1 GEMM = 10.
	if got := NewVirtual(3, 10, 1, 30).TotalTasks(); got != 10 {
		t.Fatalf("T=3 total = %d, want 10", got)
	}
}

func TestDependencyDuality(t *testing.T) {
	// For every task U and input (P, flow), U must appear in
	// Successors(P, flow) exactly as many times as the input repeats.
	p := NewVirtual(5, 10, 4, 30)
	var all []parsec.TaskID
	for k := 0; k < p.T; k++ {
		all = append(all, p.potrf(k))
		for m := k + 1; m < p.T; m++ {
			all = append(all, p.trsm(k, m), p.syrk(k, m))
			for n := k + 1; n < m; n++ {
				all = append(all, p.gemm(k, m, n))
			}
		}
	}
	succCount := map[[2]parsec.TaskID]int{}
	for _, task := range all {
		for _, s := range p.Successors(task, 0, nil) {
			succCount[[2]parsec.TaskID{task, s.Task}]++
		}
	}
	inCount := map[[2]parsec.TaskID]int{}
	var totalInputs int
	for _, task := range all {
		for _, d := range p.Inputs(task, nil) {
			inCount[[2]parsec.TaskID{d.Task, task}]++
			totalInputs++
		}
	}
	if len(succCount) != len(inCount) {
		t.Fatalf("edge sets differ: %d successor edges, %d input edges", len(succCount), len(inCount))
	}
	for e, c := range succCount {
		if inCount[e] != c {
			t.Fatalf("edge %v: %d successors vs %d inputs", e, c, inCount[e])
		}
	}
	if totalInputs == 0 {
		t.Fatal("no edges found")
	}
}

func TestCostModelOrdering(t *testing.T) {
	p := NewVirtual(4, 200, 1, 30)
	if !(p.Cost(p.gemm(0, 3, 2)) > p.Cost(p.trsm(0, 1))) {
		t.Fatal("GEMM must cost more than TRSM")
	}
	if !(p.Cost(p.trsm(0, 1)) > p.Cost(p.potrf(0))) {
		t.Fatal("TRSM must cost more than POTRF")
	}
}

func TestPriorityFavorsPanelAndEarlyIterations(t *testing.T) {
	p := NewVirtual(10, 100, 1, 30)
	if !(p.Priority(p.potrf(2)) > p.Priority(p.trsm(2, 5))) {
		t.Fatal("POTRF must outrank TRSM at the same k")
	}
	if !(p.Priority(p.gemm(1, 5, 3)) > p.Priority(p.gemm(2, 5, 3))) {
		t.Fatal("earlier iterations must outrank later ones")
	}
}

// runFactorization executes the pool on a fresh simulated cluster.
func runFactorization(t *testing.T, p *Pool, b stack.Backend, ranks, workers int) sim.Duration {
	t.Helper()
	o := stack.DefaultOptions(b, ranks)
	o.Fabric.Jitter = 0
	s := stack.Build(o)
	cfg := parsec.DefaultConfig(workers)
	cfg.Jitter = 0
	rt := parsec.New(s.Eng, s.Engines, p, cfg)
	d, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRealDistributedCholeskyMatchesDirect(t *testing.T) {
	for _, b := range stack.Backends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			const tiles, nb, ranks = 4, 8, 4
			n := tiles * nb
			prob := tlr.NewProblem(n, 0.3, 1e-2)
			p := NewReal(NewInput(tiles, nb, prob.Entry), ranks, 30)
			runFactorization(t, p, b, ranks, 2)

			l := p.AssembleFactor()
			recon := linalg.NewMatrix(n, n)
			linalg.GEMM(recon, l, l, 1, false, true)
			a := prob.Block(0, 0, n, n)
			if e := linalg.Sub(recon, a).FrobNorm() / a.FrobNorm(); e > 1e-10 {
				t.Fatalf("distributed factor wrong: rel err %g", e)
			}
		})
	}
}

func TestRealSingleRankMatchesMultiRank(t *testing.T) {
	const tiles, nb = 3, 6
	n := tiles * nb
	prob := tlr.NewProblem(n, 0.3, 1e-2)
	run := func(ranks int) *linalg.Matrix {
		p := NewReal(NewInput(tiles, nb, prob.Entry), ranks, 30)
		runFactorization(t, p, stack.LCI, ranks, 2)
		return p.AssembleFactor()
	}
	l1, l3 := run(1), run(3)
	if !linalg.Equalish(l1, l3, 1e-10) {
		t.Fatal("factor differs between 1-rank and 3-rank executions")
	}
}

func TestVirtualFactorizationCompletesAndScales(t *testing.T) {
	// A virtual T=12 factorization on 1 vs 4 ranks: more nodes with the
	// same total work must not be slower than 4x the ideal (sanity of the
	// distributed execution, not a paper claim).
	mk := func(ranks, workers int) sim.Duration {
		p := NewVirtual(12, 512, ranks, 30)
		return runFactorization(t, p, stack.LCI, ranks, workers)
	}
	d1 := mk(1, 4)
	d4 := mk(4, 4)
	if d4 >= d1 {
		t.Fatalf("4 ranks (%v) not faster than 1 rank (%v)", d4, d1)
	}
}

// TestRealTaskAllocs bounds what one real GEMM task allocates: the three
// operand tiles are decoded into the pool's workspace and the output slice is
// the pool's, leaving the output payload. The task allocated 8 objects when
// each tile was its own heap matrix, and 2 when Execute returned a fresh
// slice. Execute's result is valid until the next call, so the operands are
// copied out of it.
func TestRealTaskAllocs(t *testing.T) {
	const tiles, nb = 8, 4
	prob := tlr.NewProblem(tiles*nb, 0.3, 1e-2)
	p := NewReal(NewInput(tiles, nb, prob.Entry), 1, 30)
	l := slices.Clone(p.Execute(p.potrf(0), nil))
	a := p.Execute(p.trsm(0, 2), l)[0]
	b := p.Execute(p.trsm(0, 1), l)[0]
	in := []parsec.DataRef{a, b}
	if got := testing.AllocsPerRun(100, func() { p.Execute(p.gemm(0, 2, 1), in) }); got > 1 {
		t.Fatalf("real GEMM task allocates %v objects, want at most 1 (the output payload)", got)
	}
}
