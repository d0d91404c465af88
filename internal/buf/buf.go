// Package buf provides the buffer abstraction shared by the communication
// libraries. A Buf either wraps real bytes (small-scale correctness runs,
// where payloads are actually moved and computed on) or is *virtual* — a
// size without storage — for paper-scale performance experiments where a
// 360,000x360,000 matrix obviously cannot be materialized. All libraries in
// this repository treat the two uniformly; only Copy distinguishes them.
package buf

import "fmt"

// Buf describes a contiguous memory region of Size bytes. If Bytes is
// non-nil it must have length Size; if nil the buffer is virtual.
type Buf struct {
	Bytes []byte
	Size  int64
}

// FromBytes wraps a real byte slice.
func FromBytes(b []byte) Buf { return Buf{Bytes: b, Size: int64(len(b))} }

// Virtual returns a storage-less buffer of n bytes. It panics for n < 0.
func Virtual(n int64) Buf {
	if n < 0 {
		panic("buf: negative virtual size")
	}
	return Buf{Size: n}
}

// IsVirtual reports whether the buffer has no backing storage.
func (b Buf) IsVirtual() bool { return b.Bytes == nil }

// Slice returns the sub-buffer [off, off+n). It panics on out-of-range
// arguments, mirroring slice semantics.
func (b Buf) Slice(off, n int64) Buf {
	if off < 0 || n < 0 || off+n > b.Size {
		panic(fmt.Sprintf("buf: slice [%d:%d) out of range for size %d", off, off+n, b.Size))
	}
	if b.Bytes == nil {
		return Virtual(n)
	}
	return Buf{Bytes: b.Bytes[off : off+n], Size: n}
}

// Snapshot copies a real buffer into *slab, reusing the slab's capacity, and
// returns the copy, so the owner of b may reuse its memory; a virtual buffer
// needs no copy and is returned as is. The communication libraries use it for
// the copy an eager/buffered protocol makes into library memory. The slab
// lives in the pooled record that carries the message and keeps its capacity,
// whatever the size, for as long as the record: records are run-scoped.
func Snapshot(slab *[]byte, b Buf) Buf {
	if b.IsVirtual() {
		return b
	}
	*slab = append((*slab)[:0], b.Bytes...)
	return FromBytes(*slab)
}

// Copy transfers min(len(src), len(dst)) bytes from src to dst and returns
// the count. Virtual endpoints transfer size only; mixing a real source into
// a real destination copies bytes. Copying a virtual source into a real
// destination zero-fills it (deterministic, and loud in numeric checks if a
// code path wrongly mixes modes).
func Copy(dst, src Buf) int64 {
	n := src.Size
	if dst.Size < n {
		n = dst.Size
	}
	if n <= 0 {
		return 0
	}
	if dst.Bytes != nil {
		if src.Bytes != nil {
			copy(dst.Bytes[:n], src.Bytes[:n])
		} else {
			clear(dst.Bytes[:n])
		}
	}
	return n
}
