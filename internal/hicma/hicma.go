// Package hicma implements the paper's headline application (Section 6.4):
// HiCMA-style tile low-rank (TLR) Cholesky factorization on the PaRSEC
// runtime. Diagonal tiles are dense (band size 1); off-diagonal tiles are
// rank-r products U V^T. The task graph is the dense Cholesky graph of
// internal/cholesky, but the kernels, payload sizes, and costs follow the
// compressed format:
//
//	POTRF(k):    dense Cholesky of D[k][k]
//	TRSM(k,m):   triangular solve applied to the V factor of A[m][k]
//	SYRK(k,m):   D[m][m] -= U (V^T V) U^T
//	GEMM(k,m,n): TLR update of A[m][n] with QR+SVD recompression
//
// Two modes: a virtual mode for paper-scale performance experiments, whose
// tile ranks come from a synthetic model calibrated to the paper's reported
// statistics (average rank 10.44 and maximum low-rank tile rank 29 at
// nb = 1200 for the N = 360,000 st-2d-sqexp problem, §6.4.2), and a real
// mode that compresses an actual covariance matrix and runs the TLR kernels,
// verifiable against a dense factorization.
package hicma

import (
	"encoding/binary"
	"fmt"
	"math"

	"amtlci/internal/cholesky"
	"amtlci/internal/linalg"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
	"amtlci/internal/tlr"
)

// Task classes (same shape as the dense factorization).
const (
	ClassPOTRF = cholesky.ClassPOTRF
	ClassTRSM  = cholesky.ClassTRSM
	ClassSYRK  = cholesky.ClassSYRK
	ClassGEMM  = cholesky.ClassGEMM
)

// Params configures the factorization.
type Params struct {
	N       int     // matrix dimension
	NB      int     // tile dimension
	MaxRank int     // rank cap (150 in the paper)
	Acc     float64 // compression accuracy (1e-8 in the paper)

	// Kernel efficiency in effective GFLOP/s per core. TRSM and SYRK on a
	// rank-r factor are BLAS-3-rich and run near dense speed; the TLR GEMM
	// is dominated by skinny QR + small SVD recompression and runs far
	// below peak — the paper calls the low-rank GEMMs "far less
	// compute-intense than traditional GEMM kernels" (§6.4.1).
	PotrfGFLOPS float64
	TrsmGFLOPS  float64
	SyrkGFLOPS  float64
	GemmGFLOPS  float64

	// PotrfMaxSplit caps the internal parallelization of the dense diagonal
	// POTRF. HiCMA/DPLASMA subdivide large dense panel operations so a
	// 6000x6000 diagonal tile does not serialize the whole factorization;
	// we model that as a speedup of min((nb/1200)^2, PotrfMaxSplit).
	PotrfMaxSplit float64

	// RateRefRank and MaxGFLOPS describe how kernel efficiency grows with
	// the ranks involved: a QR on a 3000x130 factor runs near dense BLAS-3
	// speed while a 1200x30 one is bandwidth-bound. The effective rate is
	// min(MaxGFLOPS, base * max(1, r/RateRefRank)).
	RateRefRank float64
	MaxGFLOPS   float64

	// Synthetic rank model (virtual mode): rank(d) =
	// RankBase * sqrt(nb/1200) * exp(-(d/T)/RankDecay), clamped to
	// [1, min(MaxRank, nb)].
	RankBase  float64
	RankDecay float64
}

// DefaultParams mirrors the paper's HiCMA configuration for matrix size n
// and tile size nb.
func DefaultParams(n, nb int) Params {
	return Params{
		N:       n,
		NB:      nb,
		MaxRank: 150,
		Acc:     1e-8,

		PotrfGFLOPS:   25,
		TrsmGFLOPS:    20,
		SyrkGFLOPS:    20,
		GemmGFLOPS:    4,
		PotrfMaxSplit: 64,
		RateRefRank:   30,
		MaxGFLOPS:     25,

		RankBase:  29,
		RankDecay: 0.225,
	}
}

// Pool is the TLR Cholesky taskpool. It embeds the dense pool's graph
// structure (identical dependences and placement) and overrides costs,
// payload sizes, and kernels.
type Pool struct {
	*cholesky.Pool
	par Params
	// rankAt[d] is the modeled rank of a tile d block rows off the diagonal
	// (1 <= d < T), tabulated once: Cost and Execute ask up to three times
	// per task.
	rankAt []int32
	// outAt[d] is the virtual-mode payload of a task whose output tile lies d
	// block rows off the diagonal: the dense tile at 0, the packed rank-
	// rankAt[d] tile beyond. Execute returns the one-entry window outAt[d:d+1].
	// Nothing writes the table after NewVirtual, so ranks on different shards
	// share it.
	outAt []parsec.DataRef

	// Real mode (in != nil): the shared, read-only input; the factor
	// collected so far (ResultDiag[m], ResultLR[m*T+n] for n < m); the
	// scratch the kernels of the task in hand take their temporaries from;
	// and the slice Execute returns. A real-mode pool runs on a serial domain
	// only, where the runtime executes its tasks one at a time, so one
	// workspace, reset per task, serves all ranks, and out is lent to the
	// runtime until the next Execute.
	in         *Input
	ResultDiag []*linalg.Matrix
	ResultLR   []*tlr.LowRank
	ws         linalg.Workspace
	out        [1]parsec.DataRef
}

// Input is a generated, compressed covariance problem: the dense diagonal
// blocks and the compressed off-diagonal tiles. It is immutable once built —
// kernels work on copies — so any number of pools, on any number of
// goroutines, may share one.
type Input struct {
	par  Params
	diag []*linalg.Matrix // tile (m,m) at m
	lr   []*tlr.LowRank   // tile (m,n), n < m, at m*T+n
}

// NewInput evaluates prob's st-2d-sqexp covariance tile by tile and
// compresses the off-diagonal tiles to par's accuracy and rank cap.
func NewInput(par Params, prob *tlr.Problem) *Input {
	if par.N%par.NB != 0 {
		panic(fmt.Sprintf("hicma: N=%d not divisible by nb=%d", par.N, par.NB))
	}
	nb, t := par.NB, par.N/par.NB
	in := &Input{par: par, diag: make([]*linalg.Matrix, t), lr: make([]*tlr.LowRank, t*t)}
	for m := 0; m < t; m++ {
		in.diag[m] = prob.Block(m*nb, m*nb, nb, nb)
		for n := 0; n < m; n++ {
			in.lr[m*t+n] = tlr.Compress(prob.Block(m*nb, n*nb, nb, nb), par.Acc, par.MaxRank)
		}
	}
	return in
}

// NewVirtual builds the performance-mode pool for the given parameters over
// ranks processes.
func NewVirtual(par Params, ranks int) *Pool {
	if par.N%par.NB != 0 {
		panic(fmt.Sprintf("hicma: N=%d not divisible by nb=%d", par.N, par.NB))
	}
	t := par.N / par.NB
	p := &Pool{
		Pool:   cholesky.NewVirtual(t, par.NB, ranks, par.PotrfGFLOPS),
		par:    par,
		rankAt: make([]int32, t),
		outAt:  make([]parsec.DataRef, t),
	}
	p.outAt[0] = parsec.VirtualData(p.denseBytes())
	for d := 1; d < t; d++ {
		p.rankAt[d] = int32(par.modelRank(d, t))
		p.outAt[d] = parsec.VirtualData(p.lrBytes(int(p.rankAt[d])))
	}
	return p
}

// Rank returns the rank off-diagonal tile (m, n), n < m, compressed to.
func (in *Input) Rank(m, n int) int { return in.lr[m*len(in.diag)+n].Rank() }

// NewReal builds the correctness-mode pool, which runs the actual TLR
// kernels on in over ranks processes: the per-run state (results, scratch)
// around the shared input.
func NewReal(in *Input, ranks int) *Pool {
	p := NewVirtual(in.par, ranks)
	p.in = in
	p.ResultDiag = make([]*linalg.Matrix, p.T)
	p.ResultLR = make([]*tlr.LowRank, p.T*p.T)
	return p
}

// Params returns the pool's configuration.
func (p *Pool) Params() Params { return p.par }

// Rank returns the modeled rank of off-diagonal tile (m, n) in virtual
// mode. It decays exponentially with distance from the diagonal, as the
// paper describes for st-2d-sqexp ("low-rank tiles far from the diagonal
// can see their rank drop to 1", §6.4.1).
func (p *Pool) Rank(m, n int) int {
	d := m - n
	if d < 0 {
		d = -d
	}
	if d == 0 {
		panic("hicma: diagonal tiles are dense")
	}
	return int(p.rankAt[d])
}

// modelRank evaluates the rank model d block rows off the diagonal of a
// t-by-t tile matrix: exponential decay, at least 1, at most MaxRank and NB.
func (par Params) modelRank(d, t int) int {
	delta := float64(d) / float64(t)
	r := int(math.Round(par.RankBase * math.Sqrt(float64(par.NB)/1200) *
		math.Exp(-delta/par.RankDecay)))
	return max(1, min(r, par.MaxRank, par.NB))
}

// AvgRank reports the mean modeled off-diagonal rank (used to validate the
// calibration against the paper's 10.44 at nb=1200).
func (p *Pool) AvgRank() float64 {
	var sum, cnt float64
	for m := 1; m < p.T; m++ {
		for n := 0; n < m; n++ {
			sum += float64(p.Rank(m, n))
			cnt++
		}
	}
	return sum / cnt
}

// denseBytes is the payload of a dense diagonal tile.
func (p *Pool) denseBytes() int64 { return int64(p.NB) * int64(p.NB) * 8 }

// lrBytes is the payload of a packed rank-r tile.
func (p *Pool) lrBytes(r int) int64 { return tlr.PackedBytes(p.NB, r) }

// taskKMN recovers the loop indices of any task.
func (p *Pool) taskKMN(t parsec.TaskID) (k, m, n int) {
	switch t.Class {
	case ClassPOTRF:
		k = int(t.Index)
		return k, k, k
	case ClassTRSM:
		k = int(t.Index / int64(p.T))
		m = int(t.Index % int64(p.T))
		return k, m, k
	case ClassSYRK:
		k = int(t.Index / int64(p.T))
		m = int(t.Index % int64(p.T))
		return k, m, m
	case ClassGEMM:
		n = int(t.Index % int64(p.T))
		rest := t.Index / int64(p.T)
		return int(rest / int64(p.T)), int(rest % int64(p.T)), n
	}
	panic("hicma: bad class")
}

// Cost overrides the dense flop model with the TLR one.
func (p *Pool) Cost(t parsec.TaskID) sim.Duration {
	nb := float64(p.NB)
	k, m, n := p.taskKMN(t)
	_ = k
	switch t.Class {
	case ClassPOTRF:
		split := (nb / 1200) * (nb / 1200)
		if split < 1 {
			split = 1
		}
		if split > p.par.PotrfMaxSplit {
			split = p.par.PotrfMaxSplit
		}
		return sim.FromSeconds(nb * nb * nb / 3 / split / (p.par.PotrfGFLOPS * 1e9))
	case ClassTRSM:
		r := float64(p.Rank(m, k))
		return sim.FromSeconds(nb * nb * r / (p.rate(p.par.TrsmGFLOPS, r) * 1e9))
	case ClassSYRK:
		r := float64(p.Rank(m, k))
		return sim.FromSeconds((2*nb*nb*r + 2*nb*r*r) / (p.rate(p.par.SyrkGFLOPS, r) * 1e9))
	case ClassGEMM:
		rsum := float64(p.Rank(m, k) + p.Rank(n, k) + p.Rank(m, n))
		// Two skinny QRs (~24 nb rsum^2 flops with their BLAS-1/2 tails
		// priced in) plus an O(rsum^3) SVD: recompression dominates.
		return sim.FromSeconds((24*nb*rsum*rsum + 30*rsum*rsum*rsum) / (p.rate(p.par.GemmGFLOPS, rsum) * 1e9))
	}
	panic("hicma: bad class")
}

// rate returns the rank-dependent effective kernel rate.
func (p *Pool) rate(base, r float64) float64 {
	f := r / p.par.RateRefRank
	if f < 1 {
		f = 1
	}
	rate := base * f
	if rate > p.par.MaxGFLOPS {
		rate = p.par.MaxGFLOPS
	}
	return rate
}

// Name implements Taskpool.
func (p *Pool) Name() string {
	return fmt.Sprintf("hicma[N=%d,nb=%d,maxrank=%d]", p.par.N, p.par.NB, p.par.MaxRank)
}

// Execute runs the TLR kernels (real mode) or returns modeled payloads. The
// returned slice is the pool's: a window of the immutable outAt table in
// virtual mode, overwritten by the next call in real mode.
func (p *Pool) Execute(t parsec.TaskID, inputs []parsec.DataRef) []parsec.DataRef {
	if p.in == nil {
		// Every task writes tile (m, n) of taskKMN, d = m-n rows off the
		// diagonal (0 for POTRF and SYRK).
		_, m, n := p.taskKMN(t)
		d := m - n
		return p.outAt[d : d+1 : d+1]
	}
	p.out[0] = p.executeReal(t, inputs)
	return p.out[:]
}

// MakeCopy implements Taskpool.
func (p *Pool) MakeCopy(t parsec.TaskID, flow int32, size int64) parsec.DataRef {
	if p.in != nil {
		return parsec.RealData(make([]byte, size))
	}
	return parsec.VirtualData(size)
}

// executeReal runs one kernel. Operands are decoded into the pool's
// workspace, which is reset here, and the TLR kernels take their temporaries
// from it, so a task allocates only what outlives it: the output payload and,
// for POTRF and TRSM, the factor tile kept in ResultDiag / ResultLR.
func (p *Pool) executeReal(t parsec.TaskID, in []parsec.DataRef) parsec.DataRef {
	nb := p.NB
	ws := &p.ws
	ws.Reset()
	k, m, n := p.taskKMN(t)
	switch t.Class {
	case ClassPOTRF:
		d := p.updatedDiag(nil, k, k, in, 0)
		if err := linalg.POTRF(d); err != nil {
			panic(fmt.Sprintf("hicma: POTRF(%d): %v", k, err))
		}
		p.ResultDiag[k] = d
		return parsec.RealData(cholesky.TileToBytes(d))
	case ClassTRSM:
		l := cholesky.TileFromBytes(ws, in[0].Buf.Bytes, nb)
		a := p.updatedLR(nil, k, m, k, in, 1)
		tlr.TRSM(&a, l)
		p.ResultLR[m*p.T+k] = &a
		return parsec.RealData(lrToBytes(&a))
	case ClassSYRK:
		a := lrFromBytes(ws, in[0].Buf.Bytes, nb)
		d := p.updatedDiag(ws, k, m, in, 1)
		tlr.SYRKDense(ws, d, &a, -1)
		return parsec.RealData(cholesky.TileToBytes(d))
	case ClassGEMM:
		a := lrFromBytes(ws, in[0].Buf.Bytes, nb)
		b := lrFromBytes(ws, in[1].Buf.Bytes, nb)
		c := p.updatedLR(ws, k, m, n, in, 2)
		tlr.AddLRProduct(ws, &c, &a, &b, -1, p.in.par.Acc, p.in.par.MaxRank)
		return parsec.RealData(lrToBytes(&c))
	}
	panic("hicma: bad class")
}

// updatedDiag and updatedLR return the tile a task of iteration k updates in
// place, allocated from ws: a copy of the input's tile at iteration 0 — the
// input stays pristine, and crash recovery may re-execute the k=0 tasks,
// which must see the same operand both times — and the predecessor's
// payload, input flow, afterwards.
func (p *Pool) updatedDiag(ws *linalg.Workspace, k, m int, in []parsec.DataRef, flow int) *linalg.Matrix {
	if k > 0 {
		return cholesky.TileFromBytes(ws, in[flow].Buf.Bytes, p.NB)
	}
	return ws.Clone(p.in.diag[m])
}

func (p *Pool) updatedLR(ws *linalg.Workspace, k, m, n int, in []parsec.DataRef, flow int) tlr.LowRank {
	if k > 0 {
		return lrFromBytes(ws, in[flow].Buf.Bytes, p.NB)
	}
	orig := p.in.lr[m*p.T+n]
	return tlr.LowRank{U: ws.Clone(orig.U), V: ws.Clone(orig.V)}
}

// AssembleFactor reconstructs the dense lower-triangular factor from the
// real-mode results.
func (p *Pool) AssembleFactor() *linalg.Matrix {
	nb := p.NB
	nn := p.T * nb
	l := linalg.NewMatrix(nn, nn)
	for m := 0; m < p.T; m++ {
		// POTRF zeroed the strict upper triangle of the diagonal tile.
		diag := p.ResultDiag[m]
		if diag == nil {
			panic(fmt.Sprintf("hicma: missing diagonal result %d", m))
		}
		l.SetBlock(m*nb, m*nb, diag)
		for c := 0; c < m; c++ {
			lr := p.ResultLR[m*p.T+c]
			if lr == nil {
				panic(fmt.Sprintf("hicma: missing low-rank result (%d,%d)", m, c))
			}
			l.SetBlock(m*nb, c*nb, lr.Dense())
		}
	}
	return l
}

// Serialization: dense tiles use internal/cholesky's codec; low-rank tiles
// carry an 8-byte rank header followed by U then V in the same encoding.

func lrToBytes(lr *tlr.LowRank) []byte {
	nu := 8 * len(lr.U.Data)
	out := make([]byte, 8+nu+8*len(lr.V.Data))
	binary.LittleEndian.PutUint64(out, uint64(lr.Rank()))
	cholesky.PutFloats(out[8:8+nu], lr.U.Data)
	cholesky.PutFloats(out[8+nu:], lr.V.Data)
	return out
}

// lrFromBytes deserializes a tile of dimension nb into matrices from ws.
func lrFromBytes(ws *linalg.Workspace, b []byte, nb int) tlr.LowRank {
	r := int(binary.LittleEndian.Uint64(b))
	want := 8 + 8*2*nb*r
	if len(b) != want {
		panic(fmt.Sprintf("hicma: low-rank payload %d bytes, want %d (rank %d)", len(b), want, r))
	}
	u, v := ws.Matrix(nb, r), ws.Matrix(nb, r)
	cholesky.GetFloats(u.Data, b[8:8+8*nb*r])
	cholesky.GetFloats(v.Data, b[8+8*nb*r:])
	return tlr.LowRank{U: u, V: v}
}
