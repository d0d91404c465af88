// Package recover implements buddy checkpointing for crash recovery: every
// rank streams the output tiles of its completed tasks to a buddy rank (the
// next rank in a ring), so that when a rank dies, its buddy holds both a
// completion marker and a copy of the data for every task the dead rank had
// finished. The recovery orchestrator (internal/parsec) re-maps the dead
// rank's work onto the buddy, restores the checkpointed outputs instead of
// re-executing their producers, and re-executes only the tasks that had not
// reached a checkpoint.
//
// Checkpoints travel as ordinary active messages over the rank's
// communication engine, so they share the wire, the retry budget, and the
// failure detector with the runtime's own traffic. The protocol is
// fire-and-forget: a checkpoint lost in flight with the crash merely forces
// re-execution of that one task — correctness never depends on a checkpoint
// having arrived.
//
// Cascading crashes are survived by keeping the protection invariant ("every
// completion is held at its owner and at one live non-owner") repaired after
// each death:
//
//   - a manager whose failure detector has declared a peer dead stops
//     shipping frames to it (MarkDead — the NIC would drop them anyway, and
//     the ckpt_sent/ckpt_bytes books must not count frames that cannot
//     arrive);
//   - the rank that inherits a dead rank's work adopts the checkpoints it
//     was storing on the dead rank's behalf (AdoptOrphans — they become part
//     of its own protected set, counted by ckpt_orphaned);
//   - a rank whose buddy died re-replicates its checkpoint set to its new
//     buddy over the live ring (Rereplicate/RereplicateAll, counted by
//     ckpt_rereplicated), so the next crash finds a live copy again.
//
// Re-replicated and stolen-completion frames carry an explicit owner rank
// (wire version 2), because the rank a frame arrives FROM is no longer the
// rank whose death orphans it.
package recover

import (
	"encoding/binary"
	"fmt"
	"sort"

	"amtlci/internal/core"
	"amtlci/internal/metrics"
)

// TagCkpt is the active-message tag checkpoint frames travel on. It is
// disjoint from the runtime's tags (parsec uses small positive tags, the
// backends use 0x7FFF0000 and 1<<24 upward). Re-replication frames share the
// tag: they are the same protocol, distinguished by wire version.
const TagCkpt core.Tag = 0x7EC0

// Key names one checkpointed task: the task-class id and the task's index
// within the class (both as the runtime numbers them).
type Key struct {
	Class int32
	Index int64
}

// FlowCkpt is one output flow of a checkpointed task. Data nil with Size 0
// marks a purely-virtual flow (a dependency with no payload); otherwise Data
// holds Size bytes of tile content.
type FlowCkpt struct {
	Flow int32
	Size int64
	Data []byte
}

// Manager is the per-rank checkpoint store: it holds this rank's own
// checkpoints (presence = the task completed here) plus the checkpoints
// received on behalf of peers, tagged with the owning rank so a cascade of
// deaths can re-home them one hop at a time.
type Manager struct {
	eng   core.Engine
	buddy int

	local  map[Key][]FlowCkpt
	stored map[Key][]FlowCkpt
	// owner[k] is the rank whose death orphans stored[k]. Keys in local are
	// always owned by this rank and carry no entry here.
	owner map[Key]int

	// dead[r] marks peers this rank's failure detector has declared gone:
	// frames to them are suppressed instead of counted into sent/bytes.
	dead []bool

	// Checkpoint counters (metrics registry, layer "recover", this rank):
	// ckpt_sent and ckpt_bytes count frames shipped to live destinations and
	// their bytes (frames suppressed toward a known-dead rank count in
	// neither); ckpt_stored counts checkpoints accepted on a peer's behalf,
	// ckpt_bad malformed frames dropped on arrival, ckpt_rereplicated frames
	// re-shipped to a new buddy after a death, and ckpt_orphaned checkpoints
	// adopted from a dead owner.
	sent, bytes, stored_, bad, rerep, orphaned *metrics.Counter
}

// maxCkptBytes bounds one checkpoint frame; tiles in this simulation are a
// few KiB, so anything larger is a protocol bug.
const maxCkptBytes = 1 << 20

// NewManager builds the manager for e's rank and registers the checkpoint
// tag on the engine. The default buddy is the next rank in the ring.
func NewManager(e core.Engine, mreg *metrics.Registry) *Manager {
	if mreg == nil {
		mreg = metrics.New()
	}
	m := &Manager{
		eng:    e,
		buddy:  (e.Rank() + 1) % e.Size(),
		local:  make(map[Key][]FlowCkpt),
		stored: make(map[Key][]FlowCkpt),
		owner:  make(map[Key]int),
		dead:   make([]bool, e.Size()),

		sent:     mreg.Counter("recover", "ckpt_sent", e.Rank()),
		bytes:    mreg.Counter("recover", "ckpt_bytes", e.Rank()),
		stored_:  mreg.Counter("recover", "ckpt_stored", e.Rank()),
		bad:      mreg.Counter("recover", "ckpt_bad", e.Rank()),
		rerep:    mreg.Counter("recover", "ckpt_rereplicated", e.Rank()),
		orphaned: mreg.Counter("recover", "ckpt_orphaned", e.Rank()),
	}
	e.TagReg(TagCkpt, m.onCkpt, maxCkptBytes)
	return m
}

// Rank returns the owning rank.
func (m *Manager) Rank() int { return m.eng.Rank() }

// Buddy returns the rank this manager ships its checkpoints to.
func (m *Manager) Buddy() int { return m.buddy }

// SetBuddy redirects future checkpoints — the orchestrator calls it after a
// restart so survivors do not keep shipping to a dead rank.
func (m *Manager) SetBuddy(r int) { m.buddy = r }

// MarkDead records this rank's death verdict for peer r: checkpoint and
// re-replication frames aimed at r are suppressed from here on. The verdict
// is permanent — crashed ranks never revive. Idempotent.
func (m *Manager) MarkDead(r int) {
	if r >= 0 && r < len(m.dead) {
		m.dead[r] = true
	}
}

// PeerDead reports whether MarkDead has been called for r.
func (m *Manager) PeerDead(r int) bool { return r >= 0 && r < len(m.dead) && m.dead[r] }

// ship sends one encoded frame to dst unless dst is this rank or known dead,
// booking sent/bytes only for frames that actually hit the wire.
func (m *Manager) ship(dst int, frame []byte) bool {
	if dst == m.eng.Rank() || m.dead[dst] {
		return false
	}
	m.sent.Inc()
	m.bytes.Add(uint64(len(frame)))
	m.eng.SendAM(TagCkpt, dst, frame)
	return true
}

// Checkpoint records k's output flows locally and ships a copy to the buddy
// (skipped without touching the sent/bytes books when the buddy is known
// dead — the NIC would drop the frame). It must be called on the
// communication thread. The local store keeps the decoded form of the wire
// frame (not the caller's slices), so the codec is exercised on every
// checkpoint and callers may reuse their buffers.
func (m *Manager) Checkpoint(k Key, flows []FlowCkpt) {
	frame := encodeCkpt(k, flows)
	dec, _, _, err := decodeWire(frame)
	if err != nil {
		panic(fmt.Sprintf("recover: self-encoded checkpoint undecodable: %v", err))
	}
	m.local[k] = dec
	m.ship(m.buddy, frame)
}

// CheckpointFor records a completion executed away from its owner (work
// stealing): the frame carries the owner rank explicitly (wire v2) and ships
// to the given destinations — conventionally the owner and the owner's
// buddy, the same two places a home execution would have left it — so a
// restart's done-set scan finds the completion no matter which of them
// survives. A destination equal to this rank stores the copy directly;
// known-dead destinations are skipped without touching the books. Must be
// called on the communication thread.
func (m *Manager) CheckpointFor(k Key, flows []FlowCkpt, owner int, dsts ...int) {
	frame := encodeRereplicate(k, flows, owner)
	dec, _, _, err := decodeWire(frame)
	if err != nil {
		panic(fmt.Sprintf("recover: self-encoded checkpoint undecodable: %v", err))
	}
	seen := make(map[int]bool, len(dsts))
	for _, d := range dsts {
		if seen[d] {
			continue
		}
		seen[d] = true
		if d == m.eng.Rank() {
			m.accept(k, dec, owner)
			continue
		}
		m.ship(d, frame)
	}
}

// AdoptOrphans re-homes every checkpoint stored on behalf of the dead owner
// into this rank's own protected set, returning the adopted keys in
// deterministic (Class, Index) order. The orchestrator calls it on the rank
// that inherits the dead rank's work; the caller is expected to follow with
// Rereplicate so the adopted set regains a second live copy.
func (m *Manager) AdoptOrphans(deadOwner int) []Key {
	var keys []Key
	for k, o := range m.owner {
		if o != deadOwner {
			continue
		}
		if _, ok := m.local[k]; !ok {
			m.local[k] = m.stored[k]
		}
		delete(m.stored, k)
		delete(m.owner, k)
		m.orphaned.Inc()
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Class != keys[j].Class {
			return keys[i].Class < keys[j].Class
		}
		return keys[i].Index < keys[j].Index
	})
	return keys
}

// Rereplicate ships this rank's local copies of the given keys to the
// current buddy as owner-stamped (v2) frames, re-establishing protection
// after a death. Keys without a local copy are skipped. Returns the number
// of frames shipped; a buddy that is this rank itself (ring collapsed to
// one) or known dead ships nothing.
func (m *Manager) Rereplicate(keys []Key) int {
	n := 0
	for _, k := range keys {
		flows, ok := m.local[k]
		if !ok {
			continue
		}
		frame := encodeRereplicate(k, flows, m.eng.Rank())
		if m.ship(m.buddy, frame) {
			m.rerep.Inc()
			n++
		}
	}
	return n
}

// RereplicateAll ships this rank's entire local checkpoint set to the
// current buddy in deterministic key order — the full repair a rank performs
// when its buddy dies and a fresh one is assigned.
func (m *Manager) RereplicateAll() int {
	keys := make([]Key, 0, len(m.local))
	for k := range m.local {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Class != keys[j].Class {
			return keys[i].Class < keys[j].Class
		}
		return keys[i].Index < keys[j].Index
	})
	return m.Rereplicate(keys)
}

// Has reports whether k completed here or is stored on behalf of a peer.
func (m *Manager) Has(k Key) bool {
	_, okL := m.local[k]
	_, okS := m.stored[k]
	return okL || okS
}

// Lookup returns k's checkpointed flows, local copies first.
func (m *Manager) Lookup(k Key) ([]FlowCkpt, bool) {
	if fs, ok := m.local[k]; ok {
		return fs, true
	}
	fs, ok := m.stored[k]
	return fs, ok
}

// accept files one decoded checkpoint under its owner: this rank's own
// completions (stolen tasks coming home, adopted orphans re-arriving) join
// the local set; anything else is stored on the owner's behalf.
func (m *Manager) accept(k Key, flows []FlowCkpt, owner int) {
	m.stored_.Inc()
	if owner == m.eng.Rank() {
		m.local[k] = flows
		delete(m.stored, k)
		delete(m.owner, k)
		return
	}
	m.stored[k] = flows
	m.owner[k] = owner
}

// onCkpt accepts a checkpoint frame from the wire. The AM payload is only
// valid during the callback, so decodeWire's copies are load-bearing. A v1
// frame's owner is the sender; a v2 frame names its owner explicitly.
func (m *Manager) onCkpt(_ core.Engine, _ core.Tag, data []byte, src int) {
	flows, k, owner, err := decodeWire(data)
	if err != nil {
		m.bad.Inc()
		return
	}
	if owner < 0 {
		owner = src
	}
	if owner >= m.eng.Size() {
		m.bad.Inc()
		return
	}
	m.accept(k, flows, owner)
}

// Wire format v1: magic "CK" (2) version (1) class (4) index (8) nflows (2),
// then per flow: flow (4) size (8) dlen (4) data (dlen). dlen 0 with size 0
// is a virtual flow; all integers little-endian.
//
// Wire format v2 (re-replication / stolen completions) inserts the owner
// rank (4, little-endian, non-negative) between version and class; the flow
// section is identical.
const (
	ckptMagic0   = 'C'
	ckptMagic1   = 'K'
	ckptVersion  = 1
	ckptVersion2 = 2
	ckptHdrLen   = 2 + 1 + 4 + 8 + 2
	ckptHdrLen2  = 2 + 1 + 4 + 4 + 8 + 2
	ckptFlowLen  = 4 + 8 + 4
)

func encodeCkpt(k Key, flows []FlowCkpt) []byte {
	n := ckptHdrLen
	for _, f := range flows {
		n += ckptFlowLen + len(f.Data)
	}
	b := make([]byte, 0, n)
	b = append(b, ckptMagic0, ckptMagic1, ckptVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(k.Class))
	b = binary.LittleEndian.AppendUint64(b, uint64(k.Index))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(flows)))
	return appendFlows(b, flows)
}

// encodeRereplicate builds an owner-stamped v2 frame.
func encodeRereplicate(k Key, flows []FlowCkpt, owner int) []byte {
	n := ckptHdrLen2
	for _, f := range flows {
		n += ckptFlowLen + len(f.Data)
	}
	b := make([]byte, 0, n)
	b = append(b, ckptMagic0, ckptMagic1, ckptVersion2)
	b = binary.LittleEndian.AppendUint32(b, uint32(owner))
	b = binary.LittleEndian.AppendUint32(b, uint32(k.Class))
	b = binary.LittleEndian.AppendUint64(b, uint64(k.Index))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(flows)))
	return appendFlows(b, flows)
}

func appendFlows(b []byte, flows []FlowCkpt) []byte {
	for _, f := range flows {
		b = binary.LittleEndian.AppendUint32(b, uint32(f.Flow))
		b = binary.LittleEndian.AppendUint64(b, uint64(f.Size))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Data)))
		b = append(b, f.Data...)
	}
	return b
}

// decodeWire parses a checkpoint frame, copying flow data out of b (AM
// payloads do not survive the callback). The returned owner is the v2
// owner stamp, or -1 for a v1 frame (owner implied by the sender). Anything
// malformed — short buffer, wrong magic or version, negative sizes or owner,
// trailing garbage — is an error, never a panic (fuzzed).
func decodeWire(b []byte) ([]FlowCkpt, Key, int, error) {
	var k Key
	if len(b) < ckptHdrLen {
		return nil, k, -1, fmt.Errorf("recover: checkpoint truncated: %d bytes, header needs %d", len(b), ckptHdrLen)
	}
	if b[0] != ckptMagic0 || b[1] != ckptMagic1 {
		return nil, k, -1, fmt.Errorf("recover: checkpoint magic %#x%#x", b[0], b[1])
	}
	owner := -1
	rest := b[3:]
	switch b[2] {
	case ckptVersion:
	case ckptVersion2:
		if len(b) < ckptHdrLen2 {
			return nil, k, -1, fmt.Errorf("recover: v2 checkpoint truncated: %d bytes, header needs %d", len(b), ckptHdrLen2)
		}
		o := int32(binary.LittleEndian.Uint32(rest[:4]))
		if o < 0 {
			return nil, k, -1, fmt.Errorf("recover: checkpoint owner %d negative", o)
		}
		owner = int(o)
		rest = rest[4:]
	default:
		return nil, k, -1, fmt.Errorf("recover: checkpoint version %d, want %d or %d", b[2], ckptVersion, ckptVersion2)
	}
	k.Class = int32(binary.LittleEndian.Uint32(rest[:4]))
	k.Index = int64(binary.LittleEndian.Uint64(rest[4:12]))
	nflows := int(binary.LittleEndian.Uint16(rest[12:14]))
	if k.Index < 0 {
		return nil, k, owner, fmt.Errorf("recover: checkpoint index %d negative", k.Index)
	}
	rest = rest[14:]
	flows := make([]FlowCkpt, 0, nflows)
	for i := 0; i < nflows; i++ {
		if len(rest) < ckptFlowLen {
			return nil, k, owner, fmt.Errorf("recover: checkpoint flow %d truncated", i)
		}
		var f FlowCkpt
		f.Flow = int32(binary.LittleEndian.Uint32(rest[:4]))
		f.Size = int64(binary.LittleEndian.Uint64(rest[4:12]))
		dlen := int(int32(binary.LittleEndian.Uint32(rest[12:16])))
		rest = rest[ckptFlowLen:]
		if f.Size < 0 || dlen < 0 || dlen > len(rest) {
			return nil, k, owner, fmt.Errorf("recover: checkpoint flow %d data length %d invalid", i, dlen)
		}
		if dlen > 0 {
			f.Data = append([]byte(nil), rest[:dlen]...)
		}
		rest = rest[dlen:]
		flows = append(flows, f)
	}
	if len(rest) != 0 {
		return nil, k, owner, fmt.Errorf("recover: checkpoint has %d trailing bytes", len(rest))
	}
	return flows, k, owner, nil
}
