package tlr

import (
	"math"
	"testing"

	"amtlci/internal/linalg"
	"amtlci/internal/sim"
)

func randMatrix(r, c int, seed uint64) *linalg.Matrix {
	rng := sim.NewRNG(seed)
	m := linalg.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
	return m
}

// lowRankMatrix builds an exactly rank-k matrix.
func lowRankMatrix(n, k int, seed uint64) *linalg.Matrix {
	u := randMatrix(n, k, seed)
	v := randMatrix(n, k, seed+1)
	m := linalg.NewMatrix(n, n)
	linalg.GEMM(m, u, v, 1, false, true)
	return m
}

func relErr(approx, exact *linalg.Matrix) float64 {
	return linalg.Sub(approx, exact).FrobNorm() / exact.FrobNorm()
}

func TestCompressRecoversExactRank(t *testing.T) {
	a := lowRankMatrix(24, 3, 5)
	lr := Compress(a, 1e-10, 24)
	if lr.Rank() != 3 {
		t.Fatalf("rank = %d, want 3", lr.Rank())
	}
	if e := relErr(lr.Dense(), a); e > 1e-9 {
		t.Fatalf("reconstruction error %g", e)
	}
}

func TestCompressRespectsMaxRank(t *testing.T) {
	a := randMatrix(16, 16, 7) // full rank
	lr := Compress(a, 1e-15, 4)
	if lr.Rank() != 4 {
		t.Fatalf("rank = %d, want cap 4", lr.Rank())
	}
}

func TestCompressAccuracySweep(t *testing.T) {
	// Covariance tiles compress harder at looser eps; error tracks eps.
	// Use a correlation length spanning several tiles, as in geostatistics
	// problems where tiles are small relative to the correlation range.
	p := NewProblem(400, 0.35, 1e-4)
	a := p.Block(0, 200, 100, 100) // off-diagonal block
	prev := 0
	for _, eps := range []float64{1e-2, 1e-4, 1e-8} {
		lr := Compress(a, eps, 100)
		if lr.Rank() < prev {
			t.Fatalf("rank shrank as eps tightened: %d < %d", lr.Rank(), prev)
		}
		prev = lr.Rank()
		if e := relErr(lr.Dense(), a); e > eps*50 {
			t.Fatalf("eps=%g: error %g too large", eps, e)
		}
	}
	// The sq-exp kernel must actually compress.
	if lr := Compress(a, 1e-8, 100); lr.Rank() > 40 {
		t.Fatalf("sq-exp off-diagonal block rank %d did not compress", lr.Rank())
	}
}

func TestPackedBytes(t *testing.T) {
	if PackedBytes(1200, 10) != 2*1200*10*8 {
		t.Fatal("PackedBytes formula wrong")
	}
	lr := Compress(lowRankMatrix(32, 2, 3), 1e-10, 32)
	if lr.Bytes() != 2*32*int64(lr.Rank())*8 {
		t.Fatal("Bytes() inconsistent")
	}
}

func TestTRSMMatchesDense(t *testing.T) {
	n := 20
	// SPD lower factor.
	spd := linalg.NewMatrix(n, n)
	linalg.SYRK(spd, randMatrix(n, n, 21), 1)
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n))
	}
	l := spd.Clone()
	if err := linalg.POTRF(l); err != nil {
		t.Fatal(err)
	}
	a := lowRankMatrix(n, 4, 22)
	lr := Compress(a, 1e-12, n)
	TRSM(lr, l)
	// Dense reference: A * L^{-T}.
	ref := a.Clone()
	linalg.TRSMRightLowerT(ref, l)
	if e := relErr(lr.Dense(), ref); e > 1e-8 {
		t.Fatalf("TLR TRSM error %g", e)
	}
}

func TestSYRKDenseMatchesDense(t *testing.T) {
	n := 16
	a := lowRankMatrix(n, 3, 31)
	lr := Compress(a, 1e-12, n)
	d1 := randMatrix(n, n, 32)
	d2 := d1.Clone()
	SYRKDense(nil, d1, lr, -1)
	linalg.GEMM(d2, a, a, -1, false, true)
	if e := relErr(d1, d2); e > 1e-8 {
		t.Fatalf("TLR SYRK error %g", e)
	}
}

func TestAddLRProductMatchesDense(t *testing.T) {
	n := 24
	ca := lowRankMatrix(n, 3, 41)
	aa := lowRankMatrix(n, 2, 42)
	ba := lowRankMatrix(n, 4, 43)
	c := Compress(ca, 1e-12, n)
	a := Compress(aa, 1e-12, n)
	b := Compress(ba, 1e-12, n)
	AddLRProduct(nil, c, a, b, -1, 1e-12, n)
	// Dense reference.
	ref := ca.Clone()
	linalg.GEMM(ref, aa, ba, -1, false, true)
	if e := relErr(c.Dense(), ref); e > 1e-8 {
		t.Fatalf("TLR GEMM error %g", e)
	}
	if c.Rank() > 9 {
		t.Fatalf("recompression did not bound rank: %d", c.Rank())
	}
}

func TestAddLRProductRecompressionCapsRank(t *testing.T) {
	n := 20
	c := Compress(lowRankMatrix(n, 2, 51), 1e-12, n)
	for i := uint64(0); i < 6; i++ {
		a := Compress(lowRankMatrix(n, 2, 60+i), 1e-12, n)
		b := Compress(lowRankMatrix(n, 2, 70+i), 1e-12, n)
		AddLRProduct(nil, c, a, b, -1, 1e-10, 5)
		if c.Rank() > 5 {
			t.Fatalf("rank cap violated: %d", c.Rank())
		}
	}
}

// TestWorkspaceMatchesHeap: a chain of TLR GEMMs and SYRKs on one reused
// workspace produces the factors a heap-allocating run does, bit for bit,
// through both recompression paths (QR-SVD, and dense once the concatenated
// rank exceeds the tile dimension).
func TestWorkspaceMatchesHeap(t *testing.T) {
	const n = 12
	ws := new(linalg.Workspace)
	for _, rank := range []int{2, 5} { // 5+5 > 12 only after growth: both paths
		heapC := Compress(lowRankMatrix(n, rank, 81), 1e-12, n)
		heapD := randMatrix(n, n, 82)
		wsC, wsD := heapC.Clone(), heapD.Clone()
		for i := uint64(0); i < 4; i++ {
			a := Compress(lowRankMatrix(n, rank, 90+i), 1e-12, n)
			b := Compress(lowRankMatrix(n, rank+3, 95+i), 1e-12, n)
			AddLRProduct(nil, heapC, a, b, -1, 1e-10, n)
			SYRKDense(nil, heapD, a, -1)

			ws.Reset()
			step := wsC.Clone() // a task deserializes its operand
			AddLRProduct(ws, step, a, b, -1, 1e-10, n)
			SYRKDense(ws, wsD, a, -1)
			wsC = step.Clone() // and serializes its result before the next Reset
			for _, pair := range [][2]*linalg.Matrix{{wsC.U, heapC.U}, {wsC.V, heapC.V}, {wsD, heapD}} {
				if pair[0].Rows != pair[1].Rows || pair[0].Cols != pair[1].Cols {
					t.Fatalf("rank %d step %d: shapes differ", rank, i)
				}
				for k, x := range pair[0].Data {
					if math.Float64bits(x) != math.Float64bits(pair[1].Data[k]) {
						t.Fatalf("rank %d step %d: element %d differs", rank, i, k)
					}
				}
			}
		}
	}
}

func TestProblemMatrixIsSPDAndSymmetric(t *testing.T) {
	p := DefaultProblem(100)
	a := p.Block(0, 0, 100, 100)
	for i := 0; i < 100; i++ {
		for j := 0; j < i; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > 1e-15 {
				t.Fatal("covariance not symmetric")
			}
		}
	}
	l := a.Clone()
	if err := linalg.POTRF(l); err != nil {
		t.Fatalf("covariance not positive definite: %v", err)
	}
}

func TestProblemEntryProperties(t *testing.T) {
	p := DefaultProblem(64)
	if v := p.Entry(5, 5); v <= 1 {
		t.Fatalf("diagonal entry %g must exceed 1 (nugget)", v)
	}
	near := p.Entry(0, 1)
	far := p.Entry(0, 63)
	if near <= far {
		t.Fatalf("covariance must decay with distance: near=%g far=%g", near, far)
	}
}

func TestOffDiagonalRankDecaysWithDistance(t *testing.T) {
	// Tiles further from the diagonal are smoother and compress to lower
	// rank — the property HiCMA's workload model relies on (§6.4).
	p := DefaultProblem(1024)
	nb := 128
	rankAt := func(tileDist int) int {
		b := p.Block(0, tileDist*nb, nb, nb)
		return Compress(b, 1e-8, nb).Rank()
	}
	r1, r4 := rankAt(1), rankAt(4)
	if r4 > r1 {
		t.Fatalf("rank grew with distance: d=1 %d, d=4 %d", r1, r4)
	}
}
