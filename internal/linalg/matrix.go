// Package linalg provides the dense linear-algebra kernels that back the
// repository's Cholesky factorizations: GEMM, SYRK, TRSM, POTRF, Householder
// QR, and a one-sided Jacobi SVD, with no external BLAS dependency.
//
// The contract is reference-order arithmetic on contiguous storage. Every
// kernel performs exactly the floating-point operations of the textbook
// triple loop, each output element accumulated in ascending index order, and
// gets its speed only from how memory is walked: closure-free loops over row
// sub-slices, column walks turned into row walks of a transposed working
// copy. Blocking over the summation index, reassociation (pairwise or
// multi-accumulator sums of one element) and math.FMA are forbidden, because
// the bits are observable: the singular values decide where tlr.Compress
// truncates, tile ranks are message sizes, message sizes are virtual time,
// and the factor's relative error is recorded in results/. linalg_test.go
// keeps the original element-at-a-time bodies and requires bit equality with
// them. (Targets whose compiler fuses multiply-adds differ from amd64 in the
// last bits either way; the ranks of the repository's problems survive that.)
//
// Temporaries and results come from a Workspace, so a caller that runs many
// kernels per task allocates nothing per call; a nil Workspace allocates from
// the heap.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zeroed r x c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices (all the same length).
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// SetBlock copies b into m with b's (0,0) at (r0, c0).
func (m *Matrix) SetBlock(r0, c0 int, b *Matrix) {
	for i := 0; i < b.Rows; i++ {
		copy(m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+b.Cols], b.Data[i*b.Cols:(i+1)*b.Cols])
	}
}

// Transpose returns a new transposed matrix.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	transposeInto(t, m)
	return t
}

// Equalish reports whether two matrices match within tol element-wise.
func Equalish(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// FrobNorm returns the Frobenius norm.
func (m *Matrix) FrobNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Sub returns a - b.
func Sub(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: Sub shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, a.Cols)
	for i := range c.Data {
		c.Data[i] = a.Data[i] - b.Data[i]
	}
	return c
}

// Mul returns a * b.
func Mul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	GEMM(c, a, b, 1, false, false)
	return c
}

// GEMM computes C += alpha * op(A) * op(B), where op transposes when the
// corresponding flag is set. Dimensions must conform; it panics otherwise.
// Every element is s = sum_k op(A)[i][k]*op(B)[k][j] in ascending k, then
// C[i][j] += alpha*s.
func GEMM(c, a, b *Matrix, alpha float64, transA, transB bool) {
	am, ak := a.Rows, a.Cols
	if transA {
		am, ak = ak, am
	}
	bk, bn := b.Rows, b.Cols
	if transB {
		bk, bn = bn, bk
	}
	if ak != bk || c.Rows != am || c.Cols != bn {
		panic(fmt.Sprintf("linalg: GEMM shape mismatch (%dx%d)(%dx%d)->(%dx%d)",
			am, ak, bk, bn, c.Rows, c.Cols))
	}
	lda, ldb := a.Cols, b.Cols
	for i := 0; i < am; i++ {
		crow := c.Data[i*bn : (i+1)*bn]
		switch {
		case !transA && transB:
			arow := a.Data[i*lda : (i+1)*lda]
			for j := range crow {
				brow := b.Data[j*ldb : (j+1)*ldb][:len(arow)]
				var s float64
				for k, x := range arow {
					s += x * brow[k]
				}
				crow[j] += alpha * s
			}
		case !transA:
			arow := a.Data[i*lda : (i+1)*lda]
			for j := range crow {
				var s float64
				for k, x := range arow {
					s += x * b.Data[k*ldb+j]
				}
				crow[j] += alpha * s
			}
		case transB:
			for j := range crow {
				brow := b.Data[j*ldb : (j+1)*ldb]
				var s float64
				for k, y := range brow {
					s += a.Data[k*lda+i] * y
				}
				crow[j] += alpha * s
			}
		default:
			for j := range crow {
				var s float64
				for k := 0; k < ak; k++ {
					s += a.Data[k*lda+i] * b.Data[k*ldb+j]
				}
				crow[j] += alpha * s
			}
		}
	}
}

// SYRK computes C += alpha * A * A^T, updating the full symmetric matrix.
func SYRK(c, a *Matrix, alpha float64) {
	if c.Rows != a.Rows || c.Cols != a.Rows {
		panic("linalg: SYRK shape mismatch")
	}
	n, ak := a.Rows, a.Cols
	for i := 0; i < n; i++ {
		ai := a.Data[i*ak : (i+1)*ak]
		for j := 0; j <= i; j++ {
			aj := a.Data[j*ak : (j+1)*ak]
			var s float64
			for k, x := range ai {
				s += x * aj[k]
			}
			c.Data[i*n+j] += alpha * s
			if i != j {
				c.Data[j*n+i] += alpha * s
			}
		}
	}
}

// POTRF overwrites the lower triangle of a with its Cholesky factor L
// (a = L L^T) and zeroes the strict upper triangle. It returns an error if a
// is not (numerically) positive definite.
func POTRF(a *Matrix) error {
	if a.Rows != a.Cols {
		panic("linalg: POTRF needs a square matrix")
	}
	n := a.Rows
	for j := 0; j < n; j++ {
		lj := a.Data[j*n : j*n+j]
		d := a.Data[j*n+j]
		for _, x := range lj {
			d -= x * x
		}
		if d <= 0 {
			return fmt.Errorf("linalg: POTRF pivot %d is %g, matrix not positive definite", j, d)
		}
		d = math.Sqrt(d)
		a.Data[j*n+j] = d
		for i := j + 1; i < n; i++ {
			li := a.Data[i*n : i*n+j]
			s := a.Data[i*n+j]
			for k, x := range li {
				s -= x * lj[k]
			}
			a.Data[i*n+j] = s / d
		}
	}
	for i := 0; i < n; i++ {
		clear(a.Data[i*n+i+1 : (i+1)*n])
	}
	return nil
}

// TRSMRightLowerT solves B := B * L^{-T} in place, where L is lower
// triangular: the dense Cholesky panel update A[m][k] = A[m][k] * L_kk^{-T}.
func TRSMRightLowerT(b, l *Matrix) {
	if l.Rows != l.Cols || b.Cols != l.Rows {
		panic("linalg: TRSMRightLowerT shape mismatch")
	}
	n := l.Rows
	for i := 0; i < b.Rows; i++ {
		row := b.Data[i*n : (i+1)*n]
		// Solve x * L^T = row  <=>  L x^T = row^T (forward substitution).
		for j := range row {
			lj := l.Data[j*n : j*n+j]
			s := row[j]
			for k, x := range lj {
				s -= row[k] * x
			}
			row[j] = s / l.Data[j*n+j]
		}
	}
}

// TRSMLeftLower solves X := L^{-1} * B in place (B overwritten), where L is
// lower triangular: the TLR TRSM applied to a low-rank factor. Forward
// substitution runs on whole rows of B — row i loses l[i][k] times the
// finished row k for ascending k, then is divided by l[i][i] — which is the
// column-at-a-time recurrence of every element, carried out side by side.
func TRSMLeftLower(b, l *Matrix) {
	if l.Rows != l.Cols || b.Rows != l.Rows {
		panic("linalg: TRSMLeftLower shape mismatch")
	}
	n, bn := l.Rows, b.Cols
	for i := 0; i < n; i++ {
		bi := b.Data[i*bn : (i+1)*bn]
		for k, lik := range l.Data[i*n : i*n+i] {
			bk := b.Data[k*bn : (k+1)*bn]
			for j := range bi {
				bi[j] -= lik * bk[j]
			}
		}
		d := l.Data[i*n+i]
		for j := range bi {
			bi[j] /= d
		}
	}
}
