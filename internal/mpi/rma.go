package mpi

import (
	"fmt"

	"amtlci/internal/buf"
	"amtlci/internal/sim"
)

// This file implements the MPI RMA subset that §4.2.2 leaves as future work
// for the PaRSEC put: a single dynamic window per rank (MPI_Win_create_dynamic)
// with frequent attach/detach, MPI_Put, and MPI_Win_flush semantics.
//
// Two properties the paper calls out are modeled explicitly:
//
//   - dynamic-window attach/detach "are known to have performance
//     limitations under most circumstances" [25]: every attach pays
//     Config.AttachCost plus the size-dependent registration cost, and every
//     detach pays Config.DetachCost;
//   - "the PaRSEC put interface requires remote completion notifications,
//     which is not supported by standard MPI RMA": RmaPut only reports
//     *local* flush completion; the backend must send its own notification
//     message afterwards.
//
// The data transfer itself is true passive-target RDMA: the payload lands in
// the attached region at wire delivery with no target-CPU involvement, and
// the flush acknowledgment returns on the control lane.

// wireRmaPut and wireRmaAck extend the wire protocol.
const (
	wireRmaPut wireKind = 100 + iota
	wireRmaAck
)

type rmaOp struct {
	done func()
}

// WinAttach exposes b for one-sided access under id (MPI_Win_attach on the
// rank's dynamic window). The caller charges AttachCost(b.Size). Duplicate
// ids panic.
func (r *Rank) WinAttach(id uint64, b buf.Buf) {
	if r.rmaMem == nil {
		r.rmaMem = make(map[uint64]buf.Buf)
	}
	if _, dup := r.rmaMem[id]; dup {
		panic(fmt.Sprintf("mpi: window region %d attached twice at rank %d", id, r.me))
	}
	r.rmaMem[id] = b
}

// WinDetach withdraws a region (MPI_Win_detach). The caller charges
// Config.DetachCost. Unknown ids panic.
func (r *Rank) WinDetach(id uint64) {
	if _, ok := r.rmaMem[id]; !ok {
		panic(fmt.Sprintf("mpi: detaching unknown window region %d at rank %d", id, r.me))
	}
	delete(r.rmaMem, id)
}

// AttachCost prices one dynamic-window attach: the window synchronization
// plus page registration for the region.
func (c Config) AttachCost(size int64) sim.Duration {
	return c.WinAttach + c.rndvCost(size)
}

// RmaPut writes local into the region attached under id at rank dst, at
// byte offset off, and calls done when an MPI_Win_flush covering the put
// would return (data delivered and acknowledged). The caller charges
// Config.PostCost + rndvCost(local.Size) for the origin-side work.
func (r *Rank) RmaPut(dst int, id uint64, off int64, local buf.Buf, done func()) {
	w := r.newWire(wireRmaPut, dst, local.Size+r.w.cfg.HeaderBytes)
	w.size, w.payload = local.Size, local
	w.rmaID, w.rmaOff, w.rmaOp = id, off, &rmaOp{done: done}
	r.w.fab.Send(&w.msg)
}

// handleRmaPut performs the passive-target write at delivery time (the NIC
// DMAs into registered memory; no target software runs) and returns the
// flush acknowledgment on the control lane.
func (r *Rank) handleRmaPut(w *wire) {
	target, ok := r.rmaMem[w.rmaID]
	if !ok {
		panic(fmt.Sprintf("mpi: RMA put to unattached region %d at rank %d", w.rmaID, r.me))
	}
	buf.Copy(target.Slice(w.rmaOff, w.size), w.payload)
	r.received.Inc()
	ack := r.newWire(wireRmaAck, w.src, r.w.cfg.CtrlBytes)
	ack.rmaOp = w.rmaOp
	r.w.fab.Send(&ack.msg)
}
