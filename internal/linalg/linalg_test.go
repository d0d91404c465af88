package linalg

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"amtlci/internal/sim"
)

// randMatrix builds a deterministic pseudo-random matrix.
func randMatrix(r, c int, seed uint64) *Matrix {
	rng := sim.NewRNG(seed)
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
	return m
}

// spdMatrix builds a well-conditioned symmetric positive-definite matrix.
func spdMatrix(n int, seed uint64) *Matrix {
	a := randMatrix(n, n, seed)
	s := NewMatrix(n, n)
	SYRK(s, a, 1)
	for i := 0; i < n; i++ {
		s.Set(i, i, s.At(i, i)+float64(n))
	}
	return s
}

func TestGEMMAgainstHandComputed(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := NewMatrix(2, 2)
	GEMM(c, a, b, 1, false, false)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equalish(c, want, 1e-12) {
		t.Fatalf("C = %+v", c)
	}
}

func TestGEMMTransposeVariants(t *testing.T) {
	a := randMatrix(4, 3, 1)
	b := randMatrix(4, 3, 2)
	// C1 = A^T * B via flags; C2 via explicit transpose.
	c1 := NewMatrix(3, 3)
	GEMM(c1, a, b, 1, true, false)
	c2 := Mul(a.Transpose(), b)
	if !Equalish(c1, c2, 1e-12) {
		t.Fatal("transA mismatch")
	}
	c3 := NewMatrix(4, 4)
	GEMM(c3, a, b, 1, false, true)
	c4 := Mul(a, b.Transpose())
	if !Equalish(c3, c4, 1e-12) {
		t.Fatal("transB mismatch")
	}
}

func TestGEMMAccumulatesWithAlpha(t *testing.T) {
	a := randMatrix(3, 3, 3)
	b := randMatrix(3, 3, 4)
	c := randMatrix(3, 3, 5)
	orig := c.Clone()
	GEMM(c, a, b, -2, false, false)
	prod := Mul(a, b)
	for i := range c.Data {
		want := orig.Data[i] - 2*prod.Data[i]
		if math.Abs(c.Data[i]-want) > 1e-12 {
			t.Fatalf("alpha accumulate wrong at %d", i)
		}
	}
}

func TestSYRKMatchesGEMM(t *testing.T) {
	a := randMatrix(5, 3, 6)
	c1 := NewMatrix(5, 5)
	SYRK(c1, a, -1)
	c2 := NewMatrix(5, 5)
	GEMM(c2, a, a, -1, false, true)
	if !Equalish(c1, c2, 1e-12) {
		t.Fatal("SYRK != A A^T")
	}
}

func TestPOTRFReconstructs(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 40} {
		a := spdMatrix(n, uint64(n))
		l := a.Clone()
		if err := POTRF(l); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		recon := NewMatrix(n, n)
		GEMM(recon, l, l, 1, false, true)
		if !Equalish(recon, a, 1e-8*float64(n)) {
			t.Fatalf("n=%d: L L^T != A (err %g)", n, Sub(recon, a).FrobNorm())
		}
		// Upper triangle zeroed.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Fatal("upper triangle not zeroed")
				}
			}
		}
	}
}

func TestPOTRFRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, -1}})
	if err := POTRF(a); err == nil {
		t.Fatal("POTRF accepted an indefinite matrix")
	}
}

func TestTRSMRightLowerT(t *testing.T) {
	n := 6
	spd := spdMatrix(n, 9)
	l := spd.Clone()
	if err := POTRF(l); err != nil {
		t.Fatal(err)
	}
	b := randMatrix(4, n, 10)
	x := b.Clone()
	TRSMRightLowerT(x, l)
	// Check X * L^T == B.
	recon := NewMatrix(4, n)
	GEMM(recon, x, l, 1, false, true)
	if !Equalish(recon, b, 1e-9) {
		t.Fatalf("X L^T != B, err %g", Sub(recon, b).FrobNorm())
	}
}

func TestTRSMLeftLower(t *testing.T) {
	n := 6
	spd := spdMatrix(n, 11)
	l := spd.Clone()
	if err := POTRF(l); err != nil {
		t.Fatal(err)
	}
	b := randMatrix(n, 3, 12)
	x := b.Clone()
	TRSMLeftLower(x, l)
	recon := Mul(l, x)
	if !Equalish(recon, b, 1e-9) {
		t.Fatalf("L X != B, err %g", Sub(recon, b).FrobNorm())
	}
}

func TestQRProperties(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {8, 3}, {20, 7}, {5, 1}} {
		m, n := dims[0], dims[1]
		a := randMatrix(m, n, uint64(m*100+n))
		q, r := QR(nil, a)
		// A == Q R.
		recon := Mul(q, r)
		if !Equalish(recon, a, 1e-10) {
			t.Fatalf("%dx%d: QR != A (err %g)", m, n, Sub(recon, a).FrobNorm())
		}
		// Q^T Q == I.
		qtq := NewMatrix(n, n)
		GEMM(qtq, q, q, 1, true, false)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(qtq.At(i, j)-want) > 1e-10 {
					t.Fatalf("%dx%d: Q not orthonormal", m, n)
				}
			}
		}
		// R upper triangular.
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				if r.At(i, j) != 0 {
					t.Fatal("R not upper triangular")
				}
			}
		}
	}
}

func TestSVDProperties(t *testing.T) {
	for _, dims := range [][2]int{{5, 5}, {8, 4}, {4, 8}, {12, 3}} {
		m, n := dims[0], dims[1]
		a := randMatrix(m, n, uint64(m*13+n))
		u, s, v := SVD(nil, a)
		// Reconstruct.
		k := len(s)
		us := u.Clone()
		for i := 0; i < us.Rows; i++ {
			for j := 0; j < k; j++ {
				us.Set(i, j, us.At(i, j)*s[j])
			}
		}
		recon := NewMatrix(m, n)
		GEMM(recon, us, v, 1, false, true)
		if !Equalish(recon, a, 1e-9) {
			t.Fatalf("%dx%d: U S V^T != A (err %g)", m, n, Sub(recon, a).FrobNorm())
		}
		// Singular values non-negative, sorted descending.
		for i := 1; i < k; i++ {
			if s[i] > s[i-1]+1e-12 || s[i] < 0 {
				t.Fatalf("%dx%d: singular values not sorted: %v", m, n, s)
			}
		}
	}
}

func TestSVDLowRankMatrixRecovery(t *testing.T) {
	// A rank-2 matrix must show exactly 2 significant singular values.
	u := randMatrix(10, 2, 77)
	v := randMatrix(8, 2, 78)
	a := NewMatrix(10, 8)
	GEMM(a, u, v, 1, false, true)
	_, s, _ := SVD(nil, a)
	if s[0] < 1e-8 || s[1] < 1e-8 {
		t.Fatal("lost the true rank")
	}
	for i := 2; i < len(s); i++ {
		if s[i] > 1e-9*s[0] {
			t.Fatalf("rank-2 matrix has s[%d]=%g", i, s[i])
		}
	}
}

func TestSVDPropertyRandomShapes(t *testing.T) {
	f := func(seed uint16) bool {
		m := int(seed%6) + 2
		n := int(seed/6%6) + 2
		a := randMatrix(m, n, uint64(seed)+1000)
		u, s, v := SVD(nil, a)
		us := u.Clone()
		for i := 0; i < us.Rows; i++ {
			for j := 0; j < len(s); j++ {
				us.Set(i, j, us.At(i, j)*s[j])
			}
		}
		recon := NewMatrix(m, n)
		GEMM(recon, us, v, 1, false, true)
		return Equalish(recon, a, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixHelpers(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("Set/At broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone aliases")
	}
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 5 {
		t.Fatal("Transpose broken")
	}
	if n := FromRows([][]float64{{3, 4}}).FrobNorm(); math.Abs(n-5) > 1e-12 {
		t.Fatalf("FrobNorm = %v", n)
	}
}

// ---------------------------------------------------------------------------
// Bit identity with the reference kernels.
//
// The ref* functions at the end of this file are the element-at-a-time bodies
// this package shipped before its kernels were restructured around contiguous
// storage, kept verbatim. Every output element of every kernel must equal
// theirs bit for bit: tile ranks, message sizes and so virtual time are
// functions of these bits (see the package comment).

func sameBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func sameMatrix(t testing.TB, what string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: %dx%d, reference %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	sameBits(t, what, got.Data, want.Data)
}

// checkKernels runs every kernel and its reference on inputs derived from a
// (and a seed for the other operands) and requires identical bits. Factors
// are taken alternately from the heap and from a reused Workspace.
func checkKernels(t testing.TB, a *Matrix, seed uint64) {
	t.Helper()
	m, n := a.Rows, a.Cols
	ws := new(Workspace)
	for _, w := range []*Workspace{nil, ws, ws} {
		w.Reset()
		u, s, v := SVD(w, a)
		ru, rs, rv := refSVD(a)
		sameMatrix(t, "SVD u", u, ru)
		sameBits(t, "SVD s", s, rs)
		sameMatrix(t, "SVD v", v, rv)

		tall := a
		if m < n {
			tall = a.Transpose()
		}
		q, r := QR(w, tall)
		rq, rr := refQR(tall)
		sameMatrix(t, "QR q", q, rq)
		sameMatrix(t, "QR r", r, rr)
	}

	for _, tA := range []bool{false, true} {
		for _, tB := range []bool{false, true} {
			for _, alpha := range []float64{1, -1} {
				// op(A) is m x n when !tA and n x m otherwise.
				am, ak := m, n
				if tA {
					am, ak = n, m
				}
				bn := (m+n)/2 + 1
				b := randMatrix(ak, bn, seed+1)
				if tB {
					b = b.Transpose()
				}
				c := randMatrix(am, bn, seed+2)
				rc := c.Clone()
				GEMM(c, a, b, alpha, tA, tB)
				refGEMM(rc, a, b, alpha, tA, tB)
				sameMatrix(t, "GEMM", c, rc)
			}
		}
	}

	for _, alpha := range []float64{1, -1} {
		c := randMatrix(m, m, seed+3)
		rc := c.Clone()
		SYRK(c, a, alpha)
		refSYRK(rc, a, alpha)
		sameMatrix(t, "SYRK", c, rc)
	}

	// a a^T + (n+1) I is positive definite; a a^T - I usually is not, and the
	// kernels must then fail at the same pivot with the same partial factor.
	for _, shift := range []float64{float64(n + 1), -1} {
		l := NewMatrix(m, m)
		SYRK(l, a, 1)
		for i := 0; i < m; i++ {
			l.Data[i*m+i] += shift
		}
		rl := l.Clone()
		err, rerr := POTRF(l), refPOTRF(rl)
		if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
			t.Fatalf("POTRF error %v, reference %v", err, rerr)
		}
		sameMatrix(t, "POTRF", l, rl)
		if err != nil {
			continue
		}
		right := a.Transpose() // n x m: columns match l
		rright := right.Clone()
		TRSMRightLowerT(right, l)
		refTRSMRightLowerT(rright, l)
		sameMatrix(t, "TRSMRightLowerT", right, rright)
		left := a.Clone() // m x n: rows match l
		rleft := left.Clone()
		TRSMLeftLower(left, l)
		refTRSMLeftLower(rleft, l)
		sameMatrix(t, "TRSMLeftLower", left, rleft)
	}
}

// kernelInput builds the m x n operand of one table row or fuzz input: dense
// random, an exact rank-k product (k > 0), and/or with column zcol zeroed.
func kernelInput(m, n, k, zcol int, seed uint64) *Matrix {
	a := randMatrix(m, n, seed)
	if k > 0 {
		a = Mul(randMatrix(m, k, seed), randMatrix(k, n, seed+7))
	}
	if zcol >= 0 && zcol < n {
		for i := 0; i < m; i++ {
			a.Data[i*n+zcol] = 0
		}
	}
	return a
}

func TestKernelsMatchReference(t *testing.T) {
	shapes := []struct{ m, n, rank, zcol int }{
		{0, 0, 0, -1}, {1, 1, 0, -1}, {1, 1, 0, 0}, {1, 4, 0, -1}, {4, 1, 0, -1},
		{3, 5, 0, -1}, {5, 3, 0, -1}, {7, 7, 0, 0}, {7, 7, 0, 6}, {9, 6, 0, 2}, {6, 9, 0, 2},
		{12, 8, 3, -1}, {8, 12, 3, -1}, {10, 10, 1, 4},
		{16, 16, 0, -1}, {16, 16, 5, -1}, {16, 32, 0, -1}, {32, 16, 0, -1}, {32, 16, 7, -1},
		{96, 96, 0, -1}, {96, 96, 20, -1},
	}
	for i, sh := range shapes {
		if testing.Short() && sh.m == 96 {
			continue
		}
		checkKernels(t, kernelInput(sh.m, sh.n, sh.rank, sh.zcol, uint64(100+i)), uint64(200+i))
	}
	// The all-zero matrix: every reflector is the identity, no rotation fires.
	checkKernels(t, NewMatrix(6, 4), 1)
	checkKernels(t, NewMatrix(4, 6), 2)
}

func FuzzKernelsMatchReference(f *testing.F) {
	f.Add(uint8(5), uint8(3), uint8(0), uint8(255), uint64(1))
	f.Add(uint8(3), uint8(5), uint8(2), uint8(1), uint64(2))
	f.Add(uint8(16), uint8(16), uint8(4), uint8(0), uint64(3))
	f.Fuzz(func(t *testing.T, m, n, rank, zcol uint8, seed uint64) {
		mm, nn := int(m%20), int(n%20)
		if (mm == 0) != (nn == 0) {
			return // 0 x n has no reference behaviour worth pinning
		}
		checkKernels(t, kernelInput(mm, nn, int(rank%8), int(zcol%24), seed), seed^0x9e37)
	})
}

func TestWorkspaceReuse(t *testing.T) {
	ws := new(Workspace)
	a := ws.Matrix(3, 4)
	b := ws.Matrix(50, 50) // outgrows the first chunk: a must stay intact
	for i := range a.Data {
		a.Data[i] = 1
	}
	for i := range b.Data {
		b.Data[i] = 2
	}
	if a.Data[11] != 1 || b.Data[0] != 2 || len(a.Data) != 12 {
		t.Fatalf("chunk growth clobbered earlier matrices")
	}
	ws.Reset()
	if c := ws.Matrix(3, 4); c.Data[0] != 0 || c.Data[11] != 0 {
		t.Fatalf("reused workspace memory not zeroed: %v", c.Data)
	}
	ws.Reset()
	if n := testing.AllocsPerRun(10, func() {
		ws.Reset()
		ws.Matrix(3, 4)
		ws.Matrix(50, 50)
		ws.Floats(7)
	}); n != 0 {
		t.Fatalf("steady-state workspace allocates %v per task", n)
	}
}

// Reference kernels (verbatim; see above).

func refGEMM(c, a, b *Matrix, alpha float64, transA, transB bool) {
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
	at := func(i, k int) float64 {
		if transA {
			return a.Data[k*a.Cols+i]
		}
		return a.Data[i*a.Cols+k]
	}
	bt := func(k, j int) float64 {
		if transB {
			return b.Data[j*b.Cols+k]
		}
		return b.Data[k*b.Cols+j]
	}
	for i := 0; i < am; i++ {
		for j := 0; j < bn; j++ {
			var s float64
			for k := 0; k < ak; k++ {
				s += at(i, k) * bt(k, j)
			}
			c.Data[i*c.Cols+j] += alpha * s
		}
	}
}

func refSYRK(c, a *Matrix, alpha float64) {
	if c.Rows != a.Rows || c.Cols != a.Rows {
		panic("linalg: SYRK shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.Data[i*a.Cols+k] * a.Data[j*a.Cols+k]
			}
			c.Data[i*c.Cols+j] += alpha * s
			if i != j {
				c.Data[j*c.Cols+i] += alpha * s
			}
		}
	}
}

func refPOTRF(a *Matrix) error {
	if a.Rows != a.Cols {
		panic("linalg: POTRF needs a square matrix")
	}
	n := a.Rows
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= a.At(j, k) * a.At(j, k)
		}
		if d <= 0 {
			return fmt.Errorf("linalg: POTRF pivot %d is %g, matrix not positive definite", j, d)
		}
		d = math.Sqrt(d)
		a.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= a.At(i, k) * a.At(j, k)
			}
			a.Set(i, j, s/d)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a.Set(i, j, 0)
		}
	}
	return nil
}

func refTRSMRightLowerT(b, l *Matrix) {
	if l.Rows != l.Cols || b.Cols != l.Rows {
		panic("linalg: TRSMRightLowerT shape mismatch")
	}
	n := l.Rows
	for i := 0; i < b.Rows; i++ {
		row := b.Data[i*b.Cols : (i+1)*b.Cols]
		// Solve x * L^T = row  <=>  L x^T = row^T (forward substitution).
		for j := 0; j < n; j++ {
			s := row[j]
			for k := 0; k < j; k++ {
				s -= row[k] * l.At(j, k)
			}
			row[j] = s / l.At(j, j)
		}
	}
}

func refTRSMLeftLower(b, l *Matrix) {
	if l.Rows != l.Cols || b.Rows != l.Rows {
		panic("linalg: TRSMLeftLower shape mismatch")
	}
	n := l.Rows
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < n; i++ {
			s := b.At(i, j)
			for k := 0; k < i; k++ {
				s -= l.At(i, k) * b.At(k, j)
			}
			b.Set(i, j, s/l.At(i, i))
		}
	}
}

func refQR(a *Matrix) (q, r *Matrix) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("linalg: QR needs rows >= cols, got %dx%d", m, n))
	}
	work := a.Clone()
	vs := make([][]float64, n) // Householder vectors
	for k := 0; k < n; k++ {
		// Build the Householder vector for column k.
		var norm float64
		for i := k; i < m; i++ {
			norm += work.At(i, k) * work.At(i, k)
		}
		norm = math.Sqrt(norm)
		v := make([]float64, m-k)
		alpha := work.At(k, k)
		if alpha >= 0 {
			norm = -norm
		}
		if norm == 0 {
			// Zero column: identity reflector.
			vs[k] = v
			continue
		}
		v[0] = alpha - norm
		for i := k + 1; i < m; i++ {
			v[i-k] = work.At(i, k)
		}
		var vv float64
		for _, x := range v {
			vv += x * x
		}
		if vv == 0 {
			vs[k] = v
			continue
		}
		// Apply I - 2 v v^T / (v^T v) to the trailing block.
		for j := k; j < n; j++ {
			var dot float64
			for i := k; i < m; i++ {
				dot += v[i-k] * work.At(i, j)
			}
			f := 2 * dot / vv
			for i := k; i < m; i++ {
				work.Set(i, j, work.At(i, j)-f*v[i-k])
			}
		}
		vs[k] = v
	}
	r = NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, work.At(i, j))
		}
	}
	// Accumulate Q = H_0 ... H_{n-1} applied to the first n columns of I.
	q = NewMatrix(m, n)
	for j := 0; j < n; j++ {
		q.Set(j, j, 1)
	}
	for k := n - 1; k >= 0; k-- {
		v := vs[k]
		var vv float64
		for _, x := range v {
			vv += x * x
		}
		if vv == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			var dot float64
			for i := k; i < m; i++ {
				dot += v[i-k] * q.At(i, j)
			}
			f := 2 * dot / vv
			for i := k; i < m; i++ {
				q.Set(i, j, q.At(i, j)-f*v[i-k])
			}
		}
	}
	return q, r
}

func refSVD(a *Matrix) (u *Matrix, s []float64, v *Matrix) {
	m, n := a.Rows, a.Cols
	if m < n {
		// Work on the transpose and swap the factors.
		ut, st, vt := refSVD(a.Transpose())
		return vt, st, ut
	}
	u = a.Clone()
	v = NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	const maxSweeps = 60
	eps := 1e-14 * a.FrobNorm()
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var app, aqq, apq float64
				for i := 0; i < m; i++ {
					up, uq := u.At(i, p), u.At(i, q)
					app += up * up
					aqq += uq * uq
					apq += up * uq
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
				for i := 0; i < m; i++ {
					up, uq := u.At(i, p), u.At(i, q)
					u.Set(i, p, c*up-sn*uq)
					u.Set(i, q, sn*up+c*uq)
				}
				for i := 0; i < n; i++ {
					vp, vq := v.At(i, p), v.At(i, q)
					v.Set(i, p, c*vp-sn*vq)
					v.Set(i, q, sn*vp+c*vq)
				}
			}
		}
		if !rotated {
			break
		}
	}
	// Singular values are the column norms of the rotated U.
	s = make([]float64, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			norm += u.At(i, j) * u.At(i, j)
		}
		s[j] = math.Sqrt(norm)
		if s[j] > 0 {
			for i := 0; i < m; i++ {
				u.Set(i, j, u.At(i, j)/s[j])
			}
		}
	}
	// Sort descending by singular value (stable selection).
	for i := 0; i < n-1; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if s[j] > s[best] {
				best = j
			}
		}
		if best != i {
			s[i], s[best] = s[best], s[i]
			for r := 0; r < m; r++ {
				u.Data[r*n+i], u.Data[r*n+best] = u.Data[r*n+best], u.Data[r*n+i]
			}
			for r := 0; r < n; r++ {
				v.Data[r*n+i], v.Data[r*n+best] = v.Data[r*n+best], v.Data[r*n+i]
			}
		}
	}
	return u, s, v
}
