package linalg

// Workspace is a bump allocator for matrices that die together: a caller
// that runs a chain of kernels per task takes every temporary (and the
// kernels' own working copies) from one Workspace and calls Reset when the
// task is over, so steady state allocates nothing. Everything handed out
// since the last Reset is invalid after it. A nil *Workspace allocates from
// the heap, for results that outlive the caller. Not safe for concurrent use.
type Workspace struct {
	slab []float64 // current chunk; earlier chunks live on through their slices
	off  int
	need int // floats handed out since Reset: the next slab's size

	hdrs []Matrix
	nh   int
}

// Reset invalidates everything handed out and makes the whole slab — grown
// to what the last task needed, if it outgrew it — available again.
func (w *Workspace) Reset() {
	if w == nil {
		return
	}
	if w.need > len(w.slab) {
		w.slab = make([]float64, w.need)
	}
	w.off, w.need, w.nh = 0, 0, 0
}

// Floats returns n zeroed floats.
func (w *Workspace) Floats(n int) []float64 {
	if w == nil {
		return make([]float64, n)
	}
	w.need += n
	if w.off+n > len(w.slab) {
		// Slices handed out earlier keep pointing into the old chunk; Reset
		// replaces the pair with one slab of the task's total.
		w.slab = make([]float64, max(n, 2*len(w.slab)))
		w.off = 0
	}
	s := w.slab[w.off : w.off+n : w.off+n]
	w.off += n
	clear(s)
	return s
}

// Matrix returns a zeroed r x c matrix.
func (w *Workspace) Matrix(r, c int) *Matrix {
	if w == nil {
		return NewMatrix(r, c)
	}
	if r < 0 || c < 0 {
		panic("linalg: negative dimension")
	}
	if w.nh == len(w.hdrs) {
		w.hdrs = make([]Matrix, max(16, 2*len(w.hdrs)))
		w.nh = 0
	}
	m := &w.hdrs[w.nh]
	w.nh++
	*m = Matrix{Rows: r, Cols: c, Data: w.Floats(r * c)}
	return m
}

// Clone returns a copy of m.
func (w *Workspace) Clone(m *Matrix) *Matrix {
	c := w.Matrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}
