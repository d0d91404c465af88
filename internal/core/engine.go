// Package core defines the PaRSEC communication-engine abstraction of the
// paper's Listing 1: a backend-independent active-message plus one-sided-put
// API that the runtime (internal/parsec) programs against, with two
// implementations — internal/core/mpice (Section 4.2) and internal/core/lcice
// (Section 5.3).
//
// The engine owns the rank's communication thread: a serial virtual-time
// processor on which active-message callbacks and completion callbacks
// execute. Backends differ in how wire progress relates to that thread; the
// MPI backend interleaves progress with callback execution on the single
// communication thread, while the LCI backend divorces them onto a dedicated
// progress thread — the structural change the paper credits for most of its
// latency reduction.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"amtlci/internal/buf"
	"amtlci/internal/sim"
)

// Tag identifies a registered active-message callback (tag_reg in Listing 1).
type Tag int32

// AMCallback handles one delivered active message on the communication
// thread. data is only valid for the duration of the call; implementations
// that need it longer must copy it. src is the sending rank.
type AMCallback func(e Engine, tag Tag, data []byte, src int)

// MemHandle names a registered memory region (mem_reg in Listing 1). It is
// 12 bytes on the wire, so a GET DATA active message can carry the
// requester's registration to the data's owner.
type MemHandle struct {
	Rank int32
	ID   uint64
}

// handleBytes is the wire encoding size of a MemHandle.
const handleBytes = 12

// PutArgs carries the arguments of the one-sided put of Listing 1. Data
// flows from the local region (LReg at LDispl) into the remote region (RReg
// at RDispl) on rank Remote. LocalCB runs on the origin's communication
// thread when the local buffer is reusable; at the target, the AM callback
// registered for RTag runs with RCBData once the data has landed — the
// remote completion notification that plain MPI RMA cannot express (§4.2.2).
type PutArgs struct {
	LReg    MemHandle
	LDispl  int64
	RReg    MemHandle
	RDispl  int64
	Size    int64
	Remote  int
	LocalCB func()
	RTag    Tag
	RCBData []byte
}

// Engine is the communication engine of Listing 1, plus the threading hooks
// the runtime needs in simulation (Submit replaces "the communication thread
// calls progress in a loop").
type Engine interface {
	// Rank and Size identify this engine within the parallel job.
	Rank() int
	Size() int

	// TagReg registers cb for tag. maxLen is the longest payload the tag
	// accepts — a capacity the engine checks, not storage it sets aside: a
	// longer message never reaches cb, it fails the receiving engine with
	// ErrAMTooLong. Zero or less means the engine's own active-message limit.
	// Registering a tag twice panics.
	TagReg(tag Tag, cb AMCallback, maxLen int64)

	// SendAM sends an eager active message from the communication thread.
	// The engine charges the send cost to the communication thread. data is
	// copied before the call returns; the caller may reuse it at once.
	SendAM(tag Tag, remote int, data []byte)

	// SendAMMT sends an active message directly from a worker thread
	// (PaRSEC's communication multithreading, §6.4.3), bypassing the
	// communication thread. worker is the calling thread; done, if non-nil,
	// runs when the call returns to the worker.
	SendAMMT(worker *sim.Proc, tag Tag, remote int, data []byte, done func())

	// MemReg registers b for remote access and returns its handle;
	// MemDereg releases it. Lookup resolves a local handle (for tests and
	// the runtime's bookkeeping).
	MemReg(b buf.Buf) MemHandle
	MemDereg(h MemHandle)
	Lookup(h MemHandle) buf.Buf

	// Put starts the one-sided transfer described by a. It must be called
	// on the communication thread (via Submit).
	Put(a PutArgs)

	// Submit schedules fn on the communication thread after charging cost,
	// waking it if idle. It is how the runtime funnels work to the engine.
	// The thread is one FIFO sim.Proc that nothing drains or cancels: items
	// run in submission order, each exactly once, on a live rank and on one
	// that has crashed alike (the runtime's step queue relies on it).
	Submit(cost sim.Duration, fn func())

	// CommProc exposes the communication thread's processor (for
	// utilization measurements).
	CommProc() *sim.Proc

	// OnError registers fn to run (on the engine's goroutine) when the
	// engine hits a communication failure: the transport declared a peer
	// unreachable or dead, or a malformed header arrived on the wire.
	// Registration REPLACES: the engine keeps exactly one handler and the
	// latest registration wins, so a recovery orchestrator can take over
	// error routing from the plain abort a runtime installed earlier. A nil
	// fn is ignored (the previous handler, if any, stays installed); with
	// no handler registered at all a failure panics — silence would be a
	// hang. For an unrecoverable failure the engine stops issuing new
	// traffic afterwards; a failure that satisfies PeerDeath instead evicts
	// the dead peer — traffic toward it and put handshakes from it are
	// dropped, while the active messages it sent before dying are still
	// delivered — and keeps the engine running for the survivors (Base).
	OnError(fn func(error))

	// Err returns the first unrecoverable failure, or nil.
	Err() error

	// ReleaseRunState drops the records the engine recycles while a run goes
	// on: its own free lists, its library rank's, the free lists of message
	// records its shard shares, and the payload copies of its persistent
	// receives, slabs of any size included; and whatever transfer is still in
	// flight, which nothing completes once the run is over (on a crashed rank,
	// everything in flight at the crash). The runtime calls it once its run
	// has returned, on live and crashed ranks alike, so a retained stack holds
	// none of them; the engine stays usable, and a later run pays for its
	// records afresh.
	ReleaseRunState()
}

// ErrAMTooLong is the failure an engine reports (OnError, Err) when an active
// message arrives longer than the maxLen its tag was registered with.
var ErrAMTooLong = errors.New("active message longer than its tag's registered maxLen")

// AMTooLong builds that failure, worded alike on both backends: rank's engine
// (named by its package) received size bytes from src on a tag registered for
// maxLen.
func AMTooLong(engine string, rank int, tag Tag, size, maxLen int64, src int) error {
	return fmt.Errorf("%s rank %d: tag %d: %d-byte message from %d, registered for %d: %w",
		engine, rank, tag, size, src, maxLen, ErrAMTooLong)
}

// PeerDeath is implemented by transport errors that condemn a whole rank
// (rel.PeerDead), as opposed to a single failed operation. An engine that
// extracts a PeerDeath from its error chain (errors.As) evicts the dead peer
// — dropping traffic toward it and purging in-flight state — but keeps
// serving the surviving ranks, so a recovery layer above can re-map the dead
// rank's work instead of aborting the job.
type PeerDeath interface {
	error
	// DeadPeer returns the rank declared dead.
	DeadPeer() int
}

// PutHeader is the handshake both backends exchange to emulate a one-sided
// put over two-sided transport (§4.2.2, §5.3.3): where to receive, how much,
// which tag the data will use, and the remote completion callback.
type PutHeader struct {
	RReg    MemHandle
	RDispl  int64
	Size    int64
	DataTag int32 // backend-chosen tag for the data transfer
	RTag    Tag
	RCBData []byte
}

// AppendTo appends h's wire encoding to out and returns the extended slice.
func (h PutHeader) AppendTo(out []byte) []byte {
	le := binary.LittleEndian
	out = le.AppendUint32(out, uint32(h.RReg.Rank))
	out = le.AppendUint64(out, h.RReg.ID)
	out = le.AppendUint64(out, uint64(h.RDispl))
	out = le.AppendUint64(out, uint64(h.Size))
	out = le.AppendUint32(out, uint32(h.DataTag))
	out = le.AppendUint32(out, uint32(h.RTag))
	out = le.AppendUint32(out, uint32(len(h.RCBData)))
	return append(out, h.RCBData...)
}

// putHeaderFixedBytes is the encoded size of a PutHeader before RCBData.
const putHeaderFixedBytes = 4 + 8 + 8 + 8 + 4 + 4 + 4

// UnmarshalPutHeader decodes a header produced by AppendTo. A truncated or
// otherwise malformed buffer yields an error, never a panic — callers decide
// whether that is a protocol bug.
func UnmarshalPutHeader(b []byte) (PutHeader, error) {
	var h PutHeader
	if len(b) < putHeaderFixedBytes {
		return h, fmt.Errorf("core: put header truncated: %d bytes, need %d",
			len(b), putHeaderFixedBytes)
	}
	h.RReg.Rank = int32(binary.LittleEndian.Uint32(b[0:4]))
	h.RReg.ID = binary.LittleEndian.Uint64(b[4:12])
	h.RDispl = int64(binary.LittleEndian.Uint64(b[12:20]))
	h.Size = int64(binary.LittleEndian.Uint64(b[20:28]))
	h.DataTag = int32(binary.LittleEndian.Uint32(b[28:32]))
	h.RTag = Tag(binary.LittleEndian.Uint32(b[32:36]))
	n := int(int32(binary.LittleEndian.Uint32(b[36:40])))
	if n < 0 || putHeaderFixedBytes+n > len(b) {
		return h, fmt.Errorf("core: put header callback data length %d exceeds %d remaining bytes",
			n, len(b)-putHeaderFixedBytes)
	}
	h.RCBData = b[putHeaderFixedBytes : putHeaderFixedBytes+n]
	return h, nil
}

// TagTable is the tag→callback map shared by both backends (a hash table in
// the LCI backend, §5.3.2; parallel arrays in the MPI backend, §4.2.1 —
// functionally identical).
type TagTable struct {
	entries map[Tag]tagEntry
}

type tagEntry struct {
	cb     AMCallback
	maxLen int64
}

// NewTagTable returns an empty table.
func NewTagTable() *TagTable { return &TagTable{entries: make(map[Tag]tagEntry)} }

// Register adds a callback; duplicate registration panics.
func (t *TagTable) Register(tag Tag, cb AMCallback, maxLen int64) {
	if _, dup := t.entries[tag]; dup {
		panic(fmt.Sprintf("core: tag %d registered twice", tag))
	}
	if cb == nil {
		panic("core: nil AM callback")
	}
	t.entries[tag] = tagEntry{cb, maxLen}
}

// Lookup resolves a tag, panicking on unknown tags (an AM for an
// unregistered tag is always a protocol bug).
func (t *TagTable) Lookup(tag Tag) (AMCallback, int64) {
	e, ok := t.entries[tag]
	if !ok {
		panic(fmt.Sprintf("core: active message for unregistered tag %d", tag))
	}
	return e.cb, e.maxLen
}
