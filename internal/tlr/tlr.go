// Package tlr implements tile low-rank (TLR) linear algebra: the compressed
// tile format HiCMA operates on (Section 6.4). Off-diagonal tiles of a
// covariance-type matrix are stored as a product U V^T with rank r << nb;
// the TLR Cholesky kernels operate directly on the compressed format, with
// QR+SVD recompression bounding rank growth.
package tlr

import (
	"fmt"
	"math"

	"amtlci/internal/linalg"
)

// LowRank is a tile approximated as U * V^T with U, V of shape nb x r.
type LowRank struct {
	U, V *linalg.Matrix
}

// Rank returns the tile's current rank.
func (lr *LowRank) Rank() int { return lr.U.Cols }

// Rows returns the tile's dimension.
func (lr *LowRank) Rows() int { return lr.U.Rows }

// Bytes returns the packed U x V storage footprint (the message size a TLR
// runtime transfers for this tile).
func (lr *LowRank) Bytes() int64 { return PackedBytes(lr.Rows(), lr.Rank()) }

// PackedBytes returns the byte size of a packed rank-r tile of dimension nb.
func PackedBytes(nb, r int) int64 { return 2 * int64(nb) * int64(r) * 8 }

// Dense reconstructs the tile as a dense matrix.
func (lr *LowRank) Dense() *linalg.Matrix {
	d := linalg.NewMatrix(lr.U.Rows, lr.V.Rows)
	linalg.GEMM(d, lr.U, lr.V, 1, false, true)
	return d
}

// Clone deep-copies the tile.
func (lr *LowRank) Clone() *LowRank {
	return &LowRank{U: lr.U.Clone(), V: lr.V.Clone()}
}

// Compress approximates a dense tile with a low-rank product truncated at
// absolute accuracy eps (singular values at or below eps are dropped) and
// capped at maxRank. Rank never falls below 1. The threshold is absolute
// because HiCMA factors covariance matrices scaled to unit diagonal with a
// fixed accuracy (10^-8 in the paper); an absolute cut is what lets ranks
// of far-from-diagonal tiles "drop to 1" (§6.4.1).
func Compress(a *linalg.Matrix, eps float64, maxRank int) *LowRank {
	u, v := compress(nil, a, eps, maxRank)
	return &LowRank{U: u, V: v}
}

// compress is Compress with the factors and every temporary taken from ws.
func compress(ws *linalg.Workspace, a *linalg.Matrix, eps float64, maxRank int) (u, v *linalg.Matrix) {
	us, s, vs := linalg.SVD(ws, a)
	k := 1
	for k < len(s) && k < maxRank && s[k] > eps {
		k++
	}
	// Keep the leading k singular triplets, folding the singular values
	// into U.
	u = ws.Matrix(us.Rows, k)
	for i := 0; i < u.Rows; i++ {
		src := us.Data[i*us.Cols : i*us.Cols+k]
		for j, x := range src {
			u.Data[i*k+j] = x * s[j]
		}
	}
	v = ws.Matrix(vs.Rows, k)
	for i := 0; i < v.Rows; i++ {
		copy(v.Data[i*k:(i+1)*k], vs.Data[i*vs.Cols:])
	}
	return u, v
}

// TRSM applies the TLR triangular solve A := A * L^{-T} in place: because
// A = U V^T, only the V factor is solved (V := L^{-1} V), an O(nb^2 r)
// operation instead of the dense O(nb^3).
func TRSM(a *LowRank, l *linalg.Matrix) {
	linalg.TRSMLeftLower(a.V, l)
}

// SYRKDense applies D += alpha * A A^T for a low-rank A to a dense tile:
// D += alpha * U (V^T V) U^T, costing O(nb r^2 + nb^2 r). Temporaries come
// from ws.
func SYRKDense(ws *linalg.Workspace, d *linalg.Matrix, a *LowRank, alpha float64) {
	r := a.Rank()
	w := ws.Matrix(r, r)
	linalg.GEMM(w, a.V, a.V, 1, true, false) // V^T V
	uw := ws.Matrix(a.U.Rows, r)
	linalg.GEMM(uw, a.U, w, 1, false, false)
	linalg.GEMM(d, uw, a.U, alpha, false, true)
}

// AddLRProduct updates C += alpha * A * B^T where all three tiles are
// low-rank, then recompresses C to accuracy eps and rank cap maxRank. This
// is the TLR GEMM, the dominant kernel of HiCMA's Cholesky: the naive
// concatenation [U_c, alpha*U_a (V_a^T V_b)] [V_c, U_b]^T would grow the
// rank by rank(A), so a QR+SVD recompression follows. C's new factors and
// every temporary come from ws: they live until its next Reset.
func AddLRProduct(ws *linalg.Workspace, c *LowRank, a, b *LowRank, alpha, eps float64, maxRank int) {
	// W = V_a^T V_b  (ra x rb), then P = alpha * U_a W (nb x rb).
	w := ws.Matrix(a.Rank(), b.Rank())
	linalg.GEMM(w, a.V, b.V, 1, true, false)
	p := ws.Matrix(c.U.Rows, b.Rank())
	linalg.GEMM(p, a.U, w, alpha, false, false)

	// Concatenate factors: U' = [U_c | P], V' = [V_c | U_b].
	uNew := hcat(ws, c.U, p)
	vNew := hcat(ws, c.V, b.U)
	if uNew.Cols > uNew.Rows {
		// The concatenated rank exceeds the tile dimension: the "low-rank"
		// detour is pointless, so recompress through the dense form (also
		// the cheaper path in this regime).
		dense := ws.Matrix(uNew.Rows, vNew.Rows)
		linalg.GEMM(dense, uNew, vNew, 1, false, true)
		c.U, c.V = compress(ws, dense, eps, maxRank)
		return
	}
	// QR-SVD recompression of U' V'^T: M = R1 * R2^T is small (r' x r').
	q1, r1 := linalg.QR(ws, uNew)
	q2, r2 := linalg.QR(ws, vNew)
	m := ws.Matrix(r1.Rows, r2.Rows)
	linalg.GEMM(m, r1, r2, 1, false, true)
	mu, mv := compress(ws, m, eps, maxRank)
	c.U = ws.Matrix(uNew.Rows, mu.Cols)
	linalg.GEMM(c.U, q1, mu, 1, false, false)
	c.V = ws.Matrix(vNew.Rows, mv.Cols)
	linalg.GEMM(c.V, q2, mv, 1, false, false)
}

func hcat(ws *linalg.Workspace, a, b *linalg.Matrix) *linalg.Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tlr: hcat rows %d vs %d", a.Rows, b.Rows))
	}
	out := ws.Matrix(a.Rows, a.Cols+b.Cols)
	for i := 0; i < a.Rows; i++ {
		copy(out.Data[i*out.Cols:], a.Data[i*a.Cols:(i+1)*a.Cols])
		copy(out.Data[i*out.Cols+a.Cols:], b.Data[i*b.Cols:(i+1)*b.Cols])
	}
	return out
}

// Problem generates the st-2d-sqexp covariance matrices HiCMA factorizes in
// geostatistical modeling (§6.4.1): points in the unit square with a
// squared-exponential kernel plus a nugget for positive definiteness.
// Points are ordered along a Morton (Z-order) curve, as in real HiCMA
// problem generators, so that index-contiguous blocks are spatially compact
// and off-diagonal tiles compress to low rank.
type Problem struct {
	N      int     // matrix dimension (number of spatial points)
	Length float64 // correlation length
	Nugget float64 // diagonal regularization

	xs, ys []float64
}

// NewProblem builds a problem instance with precomputed point locations.
func NewProblem(n int, length, nugget float64) *Problem {
	p := &Problem{N: n, Length: length, Nugget: nugget}
	side := int(math.Ceil(math.Sqrt(float64(n))))
	// Enumerate grid cells in Morton order, skipping cells outside the
	// side x side grid, until n points are placed.
	pow2 := 1
	for pow2 < side {
		pow2 *= 2
	}
	p.xs = make([]float64, 0, n)
	p.ys = make([]float64, 0, n)
	for z := 0; len(p.xs) < n && z < pow2*pow2; z++ {
		x, y := mortonDecode(uint32(z))
		if int(x) >= side || int(y) >= side {
			continue
		}
		p.xs = append(p.xs, float64(x)/float64(side))
		p.ys = append(p.ys, float64(y)/float64(side))
	}
	if len(p.xs) < n {
		panic("tlr: Morton enumeration under-filled the grid")
	}
	return p
}

// mortonDecode splits the interleaved bits of z into x and y coordinates.
func mortonDecode(z uint32) (x, y uint32) {
	compact := func(v uint32) uint32 {
		v &= 0x55555555
		v = (v | v>>1) & 0x33333333
		v = (v | v>>2) & 0x0F0F0F0F
		v = (v | v>>4) & 0x00FF00FF
		v = (v | v>>8) & 0x0000FFFF
		return v
	}
	return compact(z), compact(z >> 1)
}

// DefaultProblem mirrors the paper's st-2d-sqexp generator at dimension n.
func DefaultProblem(n int) *Problem { return NewProblem(n, 0.1, 1e-4) }

// Entry evaluates the covariance between points i and j.
func (p *Problem) Entry(i, j int) float64 {
	dx := p.xs[i] - p.xs[j]
	dy := p.ys[i] - p.ys[j]
	v := math.Exp(-(dx*dx + dy*dy) / (2 * p.Length * p.Length))
	if i == j {
		v += p.Nugget
	}
	return v
}

// Block materializes the dense sub-matrix with rows [r0, r0+nr) and columns
// [c0, c0+nc).
func (p *Problem) Block(r0, c0, nr, nc int) *linalg.Matrix {
	m := linalg.NewMatrix(nr, nc)
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			m.Set(i, j, p.Entry(r0+i, c0+j))
		}
	}
	return m
}
