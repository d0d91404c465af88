package hicma

import (
	"math"
	"testing"

	"amtlci/internal/cholesky"
	"amtlci/internal/core/stack"
	"amtlci/internal/linalg"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
	"amtlci/internal/tlr"
)

func TestRankModelCalibration(t *testing.T) {
	// The paper reports, for N=360,000 at nb=1200: average rank 10.44
	// (packed U x V tiles ~196 KiB) and a largest low-rank tile of rank 29
	// (544 KiB), §6.4.2. The synthetic model must match those statistics.
	par := DefaultParams(360000, 1200)
	p := NewVirtual(par, 16)
	avg := p.AvgRank()
	if avg < 9.4 || avg > 11.5 {
		t.Fatalf("average rank %.2f, want ~10.44", avg)
	}
	maxRank := 0
	for m := 1; m < p.T; m++ {
		if r := p.Rank(m, m-1); r > maxRank {
			maxRank = r
		}
	}
	if maxRank < 26 || maxRank > 32 {
		t.Fatalf("max rank %d, want ~29", maxRank)
	}
	// Packed sizes: average ~196 KiB, max ~544 KiB.
	avgBytes := 2.0 * 1200 * avg * 8
	if avgBytes < 150e3 || avgBytes > 250e3 {
		t.Fatalf("average packed tile %.0f bytes, want ~196 KiB", avgBytes)
	}
	if got := tlr.PackedBytes(1200, maxRank); got < 450<<10 || got > 620<<10 {
		t.Fatalf("largest packed tile %d bytes, want ~544 KiB", got)
	}
}

func TestRankDecaysWithDistanceAndFloorsAtOne(t *testing.T) {
	p := NewVirtual(DefaultParams(360000, 1200), 16)
	prev := 1 << 30
	for d := 1; d < p.T; d += 20 {
		r := p.Rank(d, 0)
		if r > prev {
			t.Fatalf("rank grew with distance at d=%d", d)
		}
		prev = r
	}
	if p.Rank(p.T-1, 0) != 1 {
		t.Fatalf("far tile rank = %d, want 1", p.Rank(p.T-1, 0))
	}
}

func TestRankRespectsMaxRankCap(t *testing.T) {
	par := DefaultParams(360000, 6000)
	par.RankBase = 1e6 // force saturation
	p := NewVirtual(par, 16)
	if r := p.Rank(1, 0); r != par.MaxRank {
		t.Fatalf("rank %d, want cap %d", r, par.MaxRank)
	}
}

// TestRankTableMatchesFormula checks the per-distance table the constructor
// builds against the rank model evaluated directly, for every distance, on
// settings that reach each branch: the floor at 1 (far tiles of a large
// matrix), the MaxRank cap, and the NB cap (tiles smaller than MaxRank).
func TestRankTableMatchesFormula(t *testing.T) {
	small := DefaultParams(6400, 100) // NB 100 < MaxRank 150
	small.RankBase = 1e6
	capped := DefaultParams(360000, 6000)
	capped.RankBase = 1e6
	for _, par := range []Params{DefaultParams(360000, 1200), capped, small} {
		p := NewVirtual(par, 16)
		seen := map[string]bool{}
		for d := 1; d < p.T; d++ {
			want := int(math.Round(par.RankBase * math.Sqrt(float64(par.NB)/1200) *
				math.Exp(-float64(d)/float64(p.T)/par.RankDecay)))
			switch {
			case want < 1:
				want, seen["floor"] = 1, true
			case want > par.MaxRank || want > par.NB:
				want, seen["cap"] = min(par.MaxRank, par.NB), true
			}
			if got := p.Rank(d, 0); got != want || p.Rank(0, d) != want || p.Rank(p.T-1, p.T-1-d) != want {
				t.Fatalf("N=%d nb=%d: rank at distance %d = %d, formula %d", par.N, par.NB, d, got, want)
			}
		}
		t.Logf("N=%d nb=%d T=%d: branches %v", par.N, par.NB, p.T, seen)
	}
}

func TestCostsReflectCompression(t *testing.T) {
	// A TLR GEMM must be far cheaper than the dense nb^3 GEMM at the same
	// tile size — the reason HiCMA scales at all.
	par := DefaultParams(360000, 3000)
	p := NewVirtual(par, 16)
	gemm := parsec.TaskID{Class: ClassGEMM, Index: (0*int64(p.T)+100)*int64(p.T) + 50}
	tlrCost := p.Cost(gemm)
	denseFlops := 2.0 * 3000 * 3000 * 3000
	denseCost := sim.FromSeconds(denseFlops / (25 * 1e9))
	if tlrCost >= denseCost/10 {
		t.Fatalf("TLR GEMM %v not well below dense %v", tlrCost, denseCost)
	}
}

func TestVirtualSizesMatchRankModel(t *testing.T) {
	par := DefaultParams(36000, 1200)
	p := NewVirtual(par, 4)
	trsm := parsec.TaskID{Class: ClassTRSM, Index: 0*int64(p.T) + 7}
	out := p.Execute(trsm, nil)
	if len(out) != 1 {
		t.Fatalf("flows = %d", len(out))
	}
	want := tlr.PackedBytes(1200, p.Rank(7, 0))
	if out[0].Buf.Size != want {
		t.Fatalf("TRSM payload %d, want %d", out[0].Buf.Size, want)
	}
	potrf := parsec.TaskID{Class: ClassPOTRF, Index: 3}
	if got := p.Execute(potrf, nil)[0].Buf.Size; got != 1200*1200*8 {
		t.Fatalf("POTRF payload %d, want dense tile", got)
	}
}

func runPool(t *testing.T, p parsec.Taskpool, b stack.Backend, ranks, workers int) (sim.Duration, *parsec.Runtime) {
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
	return d, rt
}

func TestRealTLRCholeskyMatchesDense(t *testing.T) {
	for _, b := range stack.Backends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			const n, nb, ranks = 64, 16, 4
			prob := tlr.NewProblem(n, 0.4, 1e-2)
			par := DefaultParams(n, nb)
			par.Acc = 1e-10
			par.MaxRank = nb
			p := NewReal(NewInput(par, prob), ranks)
			runPool(t, p, b, ranks, 2)

			l := p.AssembleFactor()
			recon := linalg.NewMatrix(n, n)
			linalg.GEMM(recon, l, l, 1, false, true)
			a := prob.Block(0, 0, n, n)
			// Only the lower triangle is meaningful.
			var num, den float64
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					d := recon.At(i, j) - a.At(i, j)
					num += d * d
					den += a.At(i, j) * a.At(i, j)
				}
			}
			if e := math.Sqrt(num / den); e > 1e-6 {
				t.Fatalf("TLR factorization error %g", e)
			}
		})
	}
}

func TestRealTLRCompressionActuallyUsed(t *testing.T) {
	const n, nb = 64, 16
	prob := tlr.NewProblem(n, 0.6, 1e-2)
	par := DefaultParams(n, nb)
	par.Acc = 1e-5
	par.MaxRank = nb
	in := NewInput(par, prob)
	p := NewReal(in, 1)
	// At least one original off-diagonal tile must have rank < nb.
	compressed := false
	for m := 1; m < n/nb; m++ {
		for c := 0; c < m; c++ {
			compressed = compressed || in.Rank(m, c) < nb
		}
	}
	if !compressed {
		t.Fatal("no off-diagonal tile compressed; problem too rough")
	}
	runPool(t, p, stack.LCI, 1, 2)
	if p.ResultLR[1*p.T+0] == nil {
		t.Fatal("no low-rank results recorded")
	}
}

func TestVirtualHiCMACompletesOnBothBackends(t *testing.T) {
	for _, b := range stack.Backends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			par := DefaultParams(24000, 1200) // T=20
			p := NewVirtual(par, 4)
			d, rt := runPool(t, p, b, 4, 8)
			if d <= 0 {
				t.Fatal("zero makespan")
			}
			if ran := int64(rt.Metrics().Total("parsec", "tasks_run")); ran != p.TotalTasks() {
				t.Fatalf("ran %d tasks, want %d", ran, p.TotalTasks())
			}
			if rt.Tracer().EndToEnd().N() == 0 {
				t.Fatal("no latency samples collected")
			}
		})
	}
}

func TestLCIBeatsMPIOnLatencyAtFineTiles(t *testing.T) {
	// The central claim, miniaturized: on fine tiles the LCI backend's
	// end-to-end communication latency beats the MPI backend's, and
	// time-to-solution is no worse. (At this miniature scale the run is
	// compute-bound, so the full time-to-solution gap only appears in the
	// paper-scale runs; see internal/bench and cmd/experiments.)
	par := DefaultParams(19200, 600) // T=32, small tiles
	run := func(b stack.Backend) (sim.Duration, float64) {
		p := NewVirtual(par, 4)
		d, rt := runPool(t, p, b, 4, 8)
		return d, rt.Tracer().EndToEnd().Mean()
	}
	lci, lciLat := run(stack.LCI)
	mpi, mpiLat := run(stack.MPI)
	if lciLat >= mpiLat {
		t.Fatalf("LCI latency (%.1fus) not below MPI (%.1fus)", lciLat, mpiLat)
	}
	if float64(lci) > float64(mpi)*1.02 {
		t.Fatalf("LCI time-to-solution (%v) worse than MPI (%v)", lci, mpi)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	u := linalg.NewMatrix(8, 3)
	v := linalg.NewMatrix(8, 3)
	for i := range u.Data {
		u.Data[i] = float64(i) * 1.5
		v.Data[i] = -float64(i)
	}
	lr := &tlr.LowRank{U: u, V: v}
	got := lrFromBytes(nil, lrToBytes(lr), 8)
	if got.Rank() != 3 || !linalg.Equalish(got.U, u, 0) || !linalg.Equalish(got.V, v, 0) {
		t.Fatal("low-rank round trip failed")
	}
	d := linalg.FromRows([][]float64{{1, 2}, {3, 4}})
	if !linalg.Equalish(cholesky.TileFromBytes(nil, cholesky.TileToBytes(d), 2), d, 0) {
		t.Fatal("dense round trip failed")
	}
}

func TestTotalGEMMWorkScalesInverselyWithTileSize(t *testing.T) {
	// The TLR property behind Figure 4a's left edge: halving the tile size
	// roughly doubles the total recompression work (total GEMM flops scale
	// like 1/nb for rank ~ sqrt(nb)), so over-decomposing eventually costs
	// more compute, not just more communication.
	total := func(nb int) float64 {
		p := NewVirtual(DefaultParams(72000, nb), 1)
		var sum float64
		tt := p.T
		for k := 0; k < tt; k++ {
			for m := k + 1; m < tt; m++ {
				for n := k + 1; n < m; n++ {
					sum += p.Cost(parsec.TaskID{Class: ClassGEMM,
						Index: (int64(k)*int64(tt)+int64(m))*int64(tt) + int64(n)}).Seconds()
				}
			}
		}
		return sum
	}
	coarse := total(3000)
	fine := total(1500)
	if fine < 1.4*coarse || fine > 3.5*coarse {
		t.Fatalf("halving nb changed GEMM work by %.2fx, want ~2x", fine/coarse)
	}
}

func TestDiagonalTilePayloadDominatesAtLargeTiles(t *testing.T) {
	// §6.4.1: "Dense tiles on the diagonal band are very large and can
	// easily saturate network bandwidth alone."
	p := NewVirtual(DefaultParams(360000, 6000), 16)
	diag := p.Execute(parsec.TaskID{Class: ClassPOTRF, Index: 0}, nil)[0].Buf.Size
	lr := p.Execute(parsec.TaskID{Class: ClassTRSM, Index: 1}, nil)[0].Buf.Size
	if diag < 20*lr {
		t.Fatalf("diagonal payload %d not dominant over low-rank %d", diag, lr)
	}
}

// TestRealTaskAllocs bounds what one real TLR GEMM task allocates: its
// operands, the QR/SVD working copies and every intermediate come from the
// pool's workspace, leaving the output payload and the output slice. The
// task allocated 34 objects when each kernel temporary was its own heap
// matrix.
func TestRealTaskAllocs(t *testing.T) {
	const n, nb = 96, 16
	par := DefaultParams(n, nb)
	par.Acc = 1e-10
	par.MaxRank = nb
	p := NewReal(NewInput(par, tlr.NewProblem(n, 0.4, 1e-2)), 1)
	tt := int64(p.T)
	l := p.Execute(parsec.TaskID{Class: ClassPOTRF, Index: 0}, nil)
	a := p.Execute(parsec.TaskID{Class: ClassTRSM, Index: 2}, l)
	b := p.Execute(parsec.TaskID{Class: ClassTRSM, Index: 1}, l)
	gemm := parsec.TaskID{Class: ClassGEMM, Index: (0*tt+2)*tt + 1}
	in := []parsec.DataRef{a[0], b[0]}
	if got := testing.AllocsPerRun(100, func() { p.Execute(gemm, in) }); got > 2 {
		t.Fatalf("real TLR GEMM task allocates %v objects, want at most 2", got)
	}
}
