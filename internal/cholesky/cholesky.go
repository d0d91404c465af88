// Package cholesky implements a distributed dense tile Cholesky
// factorization as a parsec.Taskpool — the DPLASMA DPOTRF algorithm the
// paper's HiCMA build depends on (§6.1.2). Tiles are distributed 2-D
// block-cyclically; the task graph is the classic right-looking
// factorization:
//
//	POTRF(k):    L[k][k]   = chol(A[k][k])
//	TRSM(k,m):   A[m][k]   = A[m][k] * L[k][k]^-T          (m > k)
//	SYRK(k,m):   A[m][m]  -= A[m][k] * A[m][k]^T           (m > k)
//	GEMM(k,m,n): A[m][n]  -= A[m][k] * A[n][k]^T           (k < n < m)
//
// Dependences are computed, not stored, so the pool scales to millions of
// tasks. A virtual mode drives performance experiments with a flop-based
// cost model; a real mode runs the actual kernels on small matrices and can
// be verified against a direct factorization.
package cholesky

import (
	"encoding/binary"
	"fmt"
	"math"

	"amtlci/internal/linalg"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
)

// Task classes.
const (
	ClassPOTRF int32 = iota
	ClassTRSM
	ClassSYRK
	ClassGEMM
)

// Grid is a PxQ process grid with 2-D block-cyclic tile placement.
type Grid struct{ P, Q int }

// SquarishGrid factors ranks into the most square PxQ grid.
func SquarishGrid(ranks int) Grid {
	p := int(math.Sqrt(float64(ranks)))
	for ranks%p != 0 {
		p--
	}
	return Grid{P: p, Q: ranks / p}
}

// RankOf places tile (m, n).
func (g Grid) RankOf(m, n int) int { return (m%g.P)*g.Q + n%g.Q }

// Pool is the dense Cholesky taskpool.
type Pool struct {
	T    int // tiles per dimension
	NB   int // tile dimension
	grid Grid
	// rowRank[m] = (m mod P)·Q and colRank[n] = n mod Q, so the owner of
	// tile (m,n) is rowRank[m]+colRank[n]. The runtime asks for a task's
	// rank once per dependence edge; two table reads replace two divisions.
	rowRank, colRank []int32

	// GFLOPS is the per-core double-precision rate used by the cost model.
	GFLOPS float64

	// Real mode (in != nil): the shared, read-only input; the factor tiles
	// collected so far, indexed m*T+n; and the scratch the kernels of the
	// task in hand take their temporaries from. The runtime executes tasks of
	// one pool one at a time, so one workspace, reset per task, serves all
	// ranks.
	in     *Input
	Result []*linalg.Matrix
	ws     linalg.Workspace
}

// Input is the matrix a real-mode pool factors, cut into its lower-triangle
// tiles. It is immutable once built — kernels work on copies — so any number
// of pools, on any number of goroutines, may share one.
type Input struct {
	T, NB int
	tiles []*linalg.Matrix // tile (m,n), n <= m, at m*T+n
}

// NewInput cuts the dense SPD matrix given entry-wise by src (dimension
// t*nb) into tiles.
func NewInput(t, nb int, src func(i, j int) float64) *Input {
	in := &Input{T: t, NB: nb, tiles: make([]*linalg.Matrix, t*t)}
	for m := 0; m < t; m++ {
		for n := 0; n <= m; n++ {
			tile := linalg.NewMatrix(nb, nb)
			for i := 0; i < nb; i++ {
				for j := 0; j < nb; j++ {
					tile.Set(i, j, src(m*nb+i, n*nb+j))
				}
			}
			in.tiles[m*t+n] = tile
		}
	}
	return in
}

// NewVirtual builds a performance-mode pool: T x T tiles of dimension nb
// over the given rank count, with kernel durations from the flop model.
func NewVirtual(t, nb, ranks int, gflops float64) *Pool {
	if t <= 0 || nb <= 0 || ranks <= 0 || gflops <= 0 {
		panic("cholesky: invalid pool parameters")
	}
	p := &Pool{T: t, NB: nb, grid: SquarishGrid(ranks), GFLOPS: gflops}
	p.rowRank, p.colRank = make([]int32, t), make([]int32, t)
	for i := 0; i < t; i++ {
		p.rowRank[i] = int32(i % p.grid.P * p.grid.Q)
		p.colRank[i] = int32(i % p.grid.Q)
	}
	return p
}

// tileRank is grid.RankOf(m, n) from the residue tables. Tile coordinates
// outside the matrix (a task id decoded from a corrupted message) take the
// formula.
func (p *Pool) tileRank(m, n int) int {
	if uint(m) < uint(len(p.rowRank)) && uint(n) < uint(len(p.colRank)) {
		return int(p.rowRank[m] + p.colRank[n])
	}
	return p.grid.RankOf(m, n)
}

// NewReal builds a correctness-mode pool factoring in over the given rank
// count: the per-run state (results, scratch) around the shared input.
func NewReal(in *Input, ranks int, gflops float64) *Pool {
	p := NewVirtual(in.T, in.NB, ranks, gflops)
	p.in = in
	p.Result = make([]*linalg.Matrix, in.T*in.T)
	return p
}

// ID packing: POTRF index k; TRSM/SYRK index k*T+m; GEMM index (k*T+m)*T+n.

func (p *Pool) potrf(k int) parsec.TaskID {
	return parsec.TaskID{Class: ClassPOTRF, Index: int64(k)}
}
func (p *Pool) trsm(k, m int) parsec.TaskID {
	return parsec.TaskID{Class: ClassTRSM, Index: int64(k)*int64(p.T) + int64(m)}
}
func (p *Pool) syrk(k, m int) parsec.TaskID {
	return parsec.TaskID{Class: ClassSYRK, Index: int64(k)*int64(p.T) + int64(m)}
}
func (p *Pool) gemm(k, m, n int) parsec.TaskID {
	return parsec.TaskID{Class: ClassGEMM, Index: (int64(k)*int64(p.T)+int64(m))*int64(p.T) + int64(n)}
}

func (p *Pool) unpack2(t parsec.TaskID) (k, m int) {
	return int(t.Index / int64(p.T)), int(t.Index % int64(p.T))
}
func (p *Pool) unpack3(t parsec.TaskID) (k, m, n int) {
	n = int(t.Index % int64(p.T))
	rest := t.Index / int64(p.T)
	return int(rest / int64(p.T)), int(rest % int64(p.T)), n
}

// Name implements Taskpool.
func (p *Pool) Name() string { return fmt.Sprintf("dpotrf[T=%d,nb=%d]", p.T, p.NB) }

// Classes implements Taskpool.
func (p *Pool) Classes() []parsec.TaskClass {
	return []parsec.TaskClass{{Name: "POTRF"}, {Name: "TRSM"}, {Name: "SYRK"}, {Name: "GEMM"}}
}

// RankOf implements Taskpool: tasks run where their output tile lives.
func (p *Pool) RankOf(t parsec.TaskID) int {
	switch t.Class {
	case ClassPOTRF:
		k := int(t.Index)
		return p.tileRank(k, k)
	case ClassTRSM:
		k, m := p.unpack2(t)
		return p.tileRank(m, k)
	case ClassSYRK:
		_, m := p.unpack2(t)
		return p.tileRank(m, m)
	case ClassGEMM:
		_, m, n := p.unpack3(t)
		return p.tileRank(m, n)
	}
	panic("cholesky: bad class")
}

// flops returns the kernel flop count.
func (p *Pool) flops(t parsec.TaskID) float64 {
	nb := float64(p.NB)
	switch t.Class {
	case ClassPOTRF:
		return nb * nb * nb / 3
	case ClassTRSM:
		return nb * nb * nb
	case ClassSYRK:
		return nb * nb * nb
	case ClassGEMM:
		return 2 * nb * nb * nb
	}
	panic("cholesky: bad class")
}

// Cost implements Taskpool.
func (p *Pool) Cost(t parsec.TaskID) sim.Duration {
	return sim.FromSeconds(p.flops(t) / (p.GFLOPS * 1e9))
}

// Priority implements Taskpool: panel tasks and early iterations first —
// the factorization's critical path runs through POTRF(k) and the panel
// TRSMs, so they outrank trailing updates.
func (p *Pool) Priority(t parsec.TaskID) int64 {
	var k int
	var boost int64
	switch t.Class {
	case ClassPOTRF:
		k, boost = int(t.Index), 3
	case ClassTRSM:
		k, _ = p.unpack2(t)
		boost = 2
	case ClassSYRK:
		k, _ = p.unpack2(t)
		boost = 1
	case ClassGEMM:
		k, _, _ = p.unpack3(t)
	}
	return int64(p.T-k)*4 + boost
}

// Inputs implements Taskpool.
func (p *Pool) Inputs(t parsec.TaskID, out []parsec.Dep) []parsec.Dep {
	switch t.Class {
	case ClassPOTRF:
		k := int(t.Index)
		if k > 0 {
			out = append(out, parsec.Dep{Task: p.syrk(k-1, k)})
		}
	case ClassTRSM:
		k, m := p.unpack2(t)
		out = append(out, parsec.Dep{Task: p.potrf(k)})
		if k > 0 {
			out = append(out, parsec.Dep{Task: p.gemm(k-1, m, k)})
		}
	case ClassSYRK:
		k, m := p.unpack2(t)
		out = append(out, parsec.Dep{Task: p.trsm(k, m)})
		if k > 0 {
			out = append(out, parsec.Dep{Task: p.syrk(k-1, m)})
		}
	case ClassGEMM:
		k, m, n := p.unpack3(t)
		out = append(out, parsec.Dep{Task: p.trsm(k, m)})
		out = append(out, parsec.Dep{Task: p.trsm(k, n)})
		if k > 0 {
			out = append(out, parsec.Dep{Task: p.gemm(k-1, m, n)})
		}
	}
	return out
}

// Successors implements Taskpool.
func (p *Pool) Successors(t parsec.TaskID, flow int32, out []parsec.Dep) []parsec.Dep {
	switch t.Class {
	case ClassPOTRF:
		k := int(t.Index)
		for m := k + 1; m < p.T; m++ {
			out = append(out, parsec.Dep{Task: p.trsm(k, m)})
		}
	case ClassTRSM:
		k, m := p.unpack2(t)
		out = append(out, parsec.Dep{Task: p.syrk(k, m)})
		for n := k + 1; n < m; n++ {
			out = append(out, parsec.Dep{Task: p.gemm(k, m, n)})
		}
		for m2 := m + 1; m2 < p.T; m2++ {
			out = append(out, parsec.Dep{Task: p.gemm(k, m2, m)})
		}
	case ClassSYRK:
		k, m := p.unpack2(t)
		if k+1 == m {
			out = append(out, parsec.Dep{Task: p.potrf(m)})
		} else {
			out = append(out, parsec.Dep{Task: p.syrk(k+1, m)})
		}
	case ClassGEMM:
		k, m, n := p.unpack3(t)
		if k+1 == n {
			out = append(out, parsec.Dep{Task: p.trsm(n, m)})
		} else {
			out = append(out, parsec.Dep{Task: p.gemm(k+1, m, n)})
		}
	}
	return out
}

// Roots implements Taskpool: the only dependence-free task is POTRF(0).
func (p *Pool) Roots(rank int, emit func(parsec.TaskID)) {
	if p.RankOf(p.potrf(0)) == rank {
		emit(p.potrf(0))
	}
}

// LocalTasks implements Taskpool by counting the writers of every locally
// owned tile: tile (m,m) receives 1 POTRF and m SYRKs; tile (m,n), m>n,
// receives 1 TRSM and n GEMMs.
func (p *Pool) LocalTasks(rank int) int64 {
	var total int64
	for m := 0; m < p.T; m++ {
		for n := 0; n <= m; n++ {
			if p.tileRank(m, n) != rank {
				continue
			}
			if m == n {
				total += 1 + int64(m)
			} else {
				total += 1 + int64(n)
			}
		}
	}
	return total
}

// TotalTasks returns the task count of the whole factorization.
func (p *Pool) TotalTasks() int64 {
	t := int64(p.T)
	return t + t*(t-1) + t*(t-1)*(t-2)/6 // POTRF + TRSM/SYRK pairs + GEMM
}

// tileBytes is the dense tile payload size.
func (p *Pool) tileBytes() int64 { return int64(p.NB) * int64(p.NB) * 8 }

// MakeCopy implements Taskpool.
func (p *Pool) MakeCopy(t parsec.TaskID, flow int32, size int64) parsec.DataRef {
	if p.in != nil {
		return parsec.RealData(make([]byte, size))
	}
	return parsec.VirtualData(size)
}

// Execute implements Taskpool.
func (p *Pool) Execute(t parsec.TaskID, inputs []parsec.DataRef) []parsec.DataRef {
	if p.in == nil {
		return []parsec.DataRef{parsec.VirtualData(p.tileBytes())}
	}
	return []parsec.DataRef{p.executeReal(t, inputs)}
}

// executeReal runs one kernel. Operands are decoded into the pool's
// workspace, which is reset here, so a task allocates only what outlives it:
// the output payload and, for POTRF and TRSM, the factor tile kept in Result.
func (p *Pool) executeReal(t parsec.TaskID, in []parsec.DataRef) parsec.DataRef {
	ws := &p.ws
	ws.Reset()
	var out *linalg.Matrix
	switch t.Class {
	case ClassPOTRF:
		k := int(t.Index)
		out = p.updated(nil, k, k, k, in, 0)
		if err := linalg.POTRF(out); err != nil {
			panic(fmt.Sprintf("cholesky: POTRF(%d): %v", k, err))
		}
		p.Result[k*p.T+k] = out
	case ClassTRSM:
		k, m := p.unpack2(t)
		l := TileFromBytes(ws, in[0].Buf.Bytes, p.NB)
		out = p.updated(nil, k, m, k, in, 1)
		linalg.TRSMRightLowerT(out, l)
		p.Result[m*p.T+k] = out
	case ClassSYRK:
		k, m := p.unpack2(t)
		a := TileFromBytes(ws, in[0].Buf.Bytes, p.NB)
		out = p.updated(ws, k, m, m, in, 1)
		linalg.SYRK(out, a, -1)
	case ClassGEMM:
		k, m, n := p.unpack3(t)
		a := TileFromBytes(ws, in[0].Buf.Bytes, p.NB)
		b := TileFromBytes(ws, in[1].Buf.Bytes, p.NB)
		out = p.updated(ws, k, m, n, in, 2)
		linalg.GEMM(out, a, b, -1, false, true)
	default:
		panic("cholesky: bad class")
	}
	return parsec.RealData(TileToBytes(out))
}

// updated returns the tile (m,n) a task of iteration k updates in place,
// allocated from ws: a copy of the input's tile at iteration 0 — the input
// stays pristine, and crash recovery may re-execute the k=0 tasks, which must
// see the same operand both times — and the predecessor's payload, input
// flow, afterwards.
func (p *Pool) updated(ws *linalg.Workspace, k, m, n int, in []parsec.DataRef, flow int) *linalg.Matrix {
	if k > 0 {
		return TileFromBytes(ws, in[flow].Buf.Bytes, p.NB)
	}
	return ws.Clone(p.in.tiles[m*p.T+n])
}

// The tile codec, shared with internal/hicma: matrices travel as their
// row-major little-endian float64s.

// PutFloats writes src into dst, 8 bytes each; len(dst) must be 8*len(src).
func PutFloats(dst []byte, src []float64) {
	_ = dst[:8*len(src)]
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
}

// GetFloats fills dst from src, 8 bytes each; len(src) must be 8*len(dst).
func GetFloats(dst []float64, src []byte) {
	_ = src[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
}

// TileToBytes serializes a dense tile.
func TileToBytes(m *linalg.Matrix) []byte {
	out := make([]byte, 8*len(m.Data))
	PutFloats(out, m.Data)
	return out
}

// TileFromBytes deserializes an nb x nb tile into a matrix from ws.
func TileFromBytes(ws *linalg.Workspace, b []byte, nb int) *linalg.Matrix {
	if len(b) != nb*nb*8 {
		panic(fmt.Sprintf("cholesky: tile payload %d bytes, want %d", len(b), nb*nb*8))
	}
	m := ws.Matrix(nb, nb)
	GetFloats(m.Data, b)
	return m
}

// AssembleFactor reconstructs the full lower-triangular factor from Result
// (real mode, after a successful run).
func (p *Pool) AssembleFactor() *linalg.Matrix {
	nb, n := p.NB, p.T*p.NB
	l := linalg.NewMatrix(n, n)
	for m := 0; m < p.T; m++ {
		for c := 0; c <= m; c++ {
			tile := p.Result[m*p.T+c]
			if tile == nil {
				panic(fmt.Sprintf("cholesky: missing result tile (%d,%d)", m, c))
			}
			l.SetBlock(m*nb, c*nb, tile)
		}
	}
	return l
}
