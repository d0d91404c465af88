package linalg

import (
	"fmt"
	"math"
)

// transposeInto writes src^T into dst (src.Cols x src.Rows).
func transposeInto(dst, src *Matrix) {
	for i := 0; i < src.Rows; i++ {
		for j, x := range src.Data[i*src.Cols : (i+1)*src.Cols] {
			dst.Data[j*dst.Cols+i] = x
		}
	}
}

// QR computes the thin Householder QR factorization of an m x n matrix with
// m >= n: A = Q R with Q m x n having orthonormal columns and R n x n upper
// triangular. Q, R and the working copies come from ws.
//
// Reflectors act on columns, so the working copy and the accumulated Q are
// held transposed (one row per column) and the Householder vectors sit in
// one slab, vector k at [k*m, k*m+m-k).
func QR(ws *Workspace, a *Matrix) (q, r *Matrix) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("linalg: QR needs rows >= cols, got %dx%d", m, n))
	}
	work := ws.Matrix(n, m)
	transposeInto(work, a)
	vs := ws.Floats(n * m)
	vvs := ws.Floats(n) // v^T v per reflector; 0 marks an identity reflector
	for k := 0; k < n; k++ {
		// Build the Householder vector for column k.
		col := work.Data[k*m+k : (k+1)*m]
		var norm float64
		for _, x := range col {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		alpha := col[0]
		if alpha >= 0 {
			norm = -norm
		}
		if norm == 0 {
			continue // zero column
		}
		v := vs[k*m : k*m+m-k]
		copy(v, col)
		v[0] = alpha - norm
		var vv float64
		for _, x := range v {
			vv += x * x
		}
		if vv == 0 {
			continue
		}
		vvs[k] = vv
		// Apply I - 2 v v^T / (v^T v) to the trailing block.
		for j := k; j < n; j++ {
			reflect(work.Data[j*m+k:(j+1)*m], v, vv)
		}
	}
	r = ws.Matrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.Data[i*n+j] = work.Data[j*m+i]
		}
	}
	// Accumulate Q = H_0 ... H_{n-1} applied to the first n columns of I.
	qt := ws.Matrix(n, m)
	for j := 0; j < n; j++ {
		qt.Data[j*m+j] = 1
	}
	for k := n - 1; k >= 0; k-- {
		if vvs[k] == 0 {
			continue
		}
		v := vs[k*m : k*m+m-k]
		for j := 0; j < n; j++ {
			reflect(qt.Data[j*m+k:(j+1)*m], v, vvs[k])
		}
	}
	q = ws.Matrix(m, n)
	transposeInto(q, qt)
	return q, r
}

// reflect applies the Householder reflector of v (vv = v^T v) to x in place.
func reflect(x, v []float64, vv float64) {
	x = x[:len(v)]
	var dot float64
	for i, vi := range v {
		dot += vi * x[i]
	}
	f := 2 * dot / vv
	for i, vi := range v {
		x[i] -= f * vi
	}
}

// SVD computes the singular value decomposition A = U diag(S) V^T of an
// m x n matrix using the one-sided Jacobi method. U is m x n with
// orthonormal columns (where S > 0), V is n x n orthogonal, and S is
// returned in non-increasing order. U, S, V and the working copies come
// from ws.
//
// Jacobi rotates pairs of columns, so the iteration runs on the transposes
// of U and V (one row per column): transpose in, rotate and sort rows,
// transpose out.
func SVD(ws *Workspace, a *Matrix) (u *Matrix, s []float64, v *Matrix) {
	// A wide matrix is factored through its transpose with the factors
	// swapped; a's rows are that transpose's columns already.
	m, n := a.Rows, a.Cols
	wide := m < n
	if wide {
		m, n = n, m
	}
	ut := ws.Matrix(n, m)
	if wide {
		copy(ut.Data, a.Data)
	} else {
		transposeInto(ut, a)
	}
	vt := ws.Matrix(n, n)
	for i := 0; i < n; i++ {
		vt.Data[i*n+i] = 1
	}
	// Frobenius norm in the row-major order of the tall matrix.
	var frob float64
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			x := ut.Data[j*m+i]
			frob += x * x
		}
	}
	const maxSweeps = 60
	eps := 1e-14 * math.Sqrt(frob)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			up := ut.Data[p*m : (p+1)*m]
			for q := p + 1; q < n; q++ {
				uq := ut.Data[q*m : (q+1)*m][:len(up)]
				var app, aqq, apq float64
				for i, x := range up {
					y := uq[i]
					app += x * x
					aqq += y * y
					apq += x * y
				}
				if math.Abs(apq) <= eps*math.Sqrt(app*aqq)+1e-300 {
					continue
				}
				rotated = true
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				sn := c * t
				rotate(up, uq, c, sn)
				rotate(vt.Data[p*n:(p+1)*n], vt.Data[q*n:(q+1)*n], c, sn)
			}
		}
		if !rotated {
			break
		}
	}
	// Singular values are the column norms of the rotated U.
	s = ws.Floats(n)
	for j := 0; j < n; j++ {
		col := ut.Data[j*m : (j+1)*m]
		var norm float64
		for _, x := range col {
			norm += x * x
		}
		s[j] = math.Sqrt(norm)
		if s[j] > 0 {
			for i := range col {
				col[i] /= s[j]
			}
		}
	}
	// Sort descending by singular value (selection sort; a column swap is a
	// row swap here).
	for i := 0; i < n-1; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if s[j] > s[best] {
				best = j
			}
		}
		if best != i {
			s[i], s[best] = s[best], s[i]
			swap(ut.Data[i*m:(i+1)*m], ut.Data[best*m:(best+1)*m])
			swap(vt.Data[i*n:(i+1)*n], vt.Data[best*n:(best+1)*n])
		}
	}
	u = ws.Matrix(m, n)
	transposeInto(u, ut)
	v = ws.Matrix(n, n)
	transposeInto(v, vt)
	if wide {
		return v, s, u
	}
	return u, s, v
}

func swap(x, y []float64) {
	for i := range x {
		x[i], y[i] = y[i], x[i]
	}
}

// rotate applies the plane rotation (c, sn) to the vector pair (x, y).
func rotate(x, y []float64, c, sn float64) {
	y = y[:len(x)]
	for i, xi := range x {
		yi := y[i]
		x[i] = c*xi - sn*yi
		y[i] = sn*xi + c*yi
	}
}
