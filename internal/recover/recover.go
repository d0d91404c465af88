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
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

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

// compareKeys is the deterministic (Class, Index) order of adopted and
// re-replicated key lists.
func compareKeys(a, b Key) int {
	return cmp.Or(cmp.Compare(a.Class, b.Class), cmp.Compare(a.Index, b.Index))
}

// FlowCkpt is one output flow of a checkpointed task. Data nil with Size 0
// marks a purely-virtual flow (a dependency with no payload); otherwise Data
// holds Size bytes of tile content.
type FlowCkpt struct {
	Flow int32
	Size int64
	Data []byte
}

// ckpt is one stored checkpoint, whose only allocation of its own is data.
// A single-flow checkpoint, the only kind the runtime takes, keeps its flow
// header inline, and data is an exact-size copy of its payload (nil for a
// virtual flow). Any other flow count keeps a copy of its whole frame in
// data, which decodes zero-copy on the way out.
type ckpt struct {
	data   []byte
	size   int64 // the single flow's Size
	flow   int32 // the single flow's id
	owner  int32 // stored checkpoints: the rank whose death orphans it
	framed bool  // data is the frame, not one flow's payload
}

// newCkpt copies a decoded frame into a store record. flows (decoded from
// frame) and frame may be memory the caller reuses (a frame scratch, an AM
// payload): the record is not.
func newCkpt(flows []FlowCkpt, frame []byte) ckpt {
	if len(flows) != 1 {
		return ckpt{data: bytes.Clone(frame), framed: true}
	}
	c := ckpt{size: flows[0].Size, flow: flows[0].Flow}
	if len(flows[0].Data) > 0 {
		c.data = bytes.Clone(flows[0].Data)
	}
	return c
}

// appendFlows appends c's flows to out; their Data aliases the record.
func (c *ckpt) appendFlows(out []FlowCkpt) []FlowCkpt {
	if c.framed {
		out, _, _, _ = decodeWire(c.data, out) // it decoded before it was stored
		return out
	}
	f := FlowCkpt{Flow: c.flow, Size: c.size}
	if len(c.data) > 0 {
		f.Data = c.data[:len(c.data):len(c.data)]
	}
	return append(out, f)
}

// Manager is the per-rank checkpoint store: it holds this rank's own
// checkpoints (presence = the task completed here) plus the checkpoints
// received on behalf of peers, tagged with the owning rank so a cascade of
// deaths can re-home them one hop at a time.
type Manager struct {
	eng   core.Engine
	buddy int

	// local holds the checkpoints this rank owns; stored those it keeps on a
	// peer's behalf, each carrying its owner.
	local  map[Key]ckpt
	stored map[Key]ckpt

	// dead[r] marks peers this rank's failure detector has declared gone:
	// frames to them are suppressed instead of counted into sent/bytes.
	dead []bool

	// Scratch, reused by every call (all of them run on the communication
	// thread): enc is the frame being shipped (SendAM copies it before it
	// returns), view a frame decoded zero-copy or a record's flows being
	// re-encoded, found the flows Lookup returns, and keys RereplicateAll's
	// key list.
	enc   []byte
	view  []FlowCkpt
	found []FlowCkpt
	keys  []Key

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
		local:  make(map[Key]ckpt),
		stored: make(map[Key]ckpt),
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

// ship sends the encoded frame in m.enc to dst unless dst is this rank or
// known dead, booking sent/bytes only for frames that actually hit the wire.
func (m *Manager) ship(dst int) bool {
	if dst == m.eng.Rank() || m.dead[dst] {
		return false
	}
	m.sent.Inc()
	m.bytes.Add(uint64(len(m.enc)))
	m.eng.SendAM(TagCkpt, dst, m.enc)
	return true
}

// selfCheck decodes the frame just encoded into m.enc, zero-copy into
// m.view, so the codec is exercised on every checkpoint: a frame this rank
// cannot read back is a bug here, not bad input.
func (m *Manager) selfCheck() []FlowCkpt {
	flows, _, _, err := decodeWire(m.enc, m.view[:0])
	m.view = flows
	if err != nil {
		panic(fmt.Sprintf("recover: self-encoded checkpoint undecodable: %v", err))
	}
	return flows
}

// Checkpoint records k's output flows locally and ships a copy to the buddy
// (skipped without touching the sent/bytes books when the buddy is known
// dead — the NIC would drop the frame). It must be called on the
// communication thread. The local store keeps the decoded form of the wire
// frame, in one copy of its own, so callers may reuse their buffers.
func (m *Manager) Checkpoint(k Key, flows []FlowCkpt) {
	m.enc = appendFrame(m.enc[:0], k, flows, -1)
	m.local[k] = newCkpt(m.selfCheck(), m.enc)
	m.ship(m.buddy)
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
	m.enc = appendFrame(m.enc[:0], k, flows, owner)
	dec := m.selfCheck()
	for i, d := range dsts {
		if slices.Contains(dsts[:i], d) {
			continue
		}
		if d == m.eng.Rank() {
			m.accept(k, newCkpt(dec, m.enc), owner)
			continue
		}
		m.ship(d)
	}
}

// AdoptOrphans re-homes every checkpoint stored on behalf of the dead owner
// into this rank's own protected set, returning the adopted keys in
// deterministic (Class, Index) order. The orchestrator calls it on the rank
// that inherits the dead rank's work; the caller is expected to follow with
// Rereplicate so the adopted set regains a second live copy.
func (m *Manager) AdoptOrphans(deadOwner int) []Key {
	var keys []Key
	for k, c := range m.stored {
		if int(c.owner) != deadOwner {
			continue
		}
		if _, ok := m.local[k]; !ok {
			m.local[k] = c
		}
		delete(m.stored, k)
		m.orphaned.Inc()
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareKeys)
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
		c, ok := m.local[k]
		if !ok {
			continue
		}
		m.view = c.appendFlows(m.view[:0])
		m.enc = appendFrame(m.enc[:0], k, m.view, m.eng.Rank())
		if m.ship(m.buddy) {
			m.rerep.Inc()
			n++
		}
	}
	clear(m.view) // the records may be replaced; the scratch must not pin them
	return n
}

// RereplicateAll ships this rank's entire local checkpoint set to the
// current buddy in deterministic key order — the full repair a rank performs
// when its buddy dies and a fresh one is assigned.
func (m *Manager) RereplicateAll() int {
	m.keys = m.keys[:0]
	for k := range m.local {
		m.keys = append(m.keys, k)
	}
	slices.SortFunc(m.keys, compareKeys)
	return m.Rereplicate(m.keys)
}

// Has reports whether k completed here or is stored on behalf of a peer.
func (m *Manager) Has(k Key) bool {
	_, okL := m.local[k]
	_, okS := m.stored[k]
	return okL || okS
}

// Lookup returns k's checkpointed flows, local copies first. The slice and
// the Data it names are the manager's: read-only, and valid until the next
// Lookup.
func (m *Manager) Lookup(k Key) ([]FlowCkpt, bool) {
	c, ok := m.local[k]
	if !ok {
		c, ok = m.stored[k]
	}
	if !ok {
		return nil, false
	}
	m.found = c.appendFlows(m.found[:0])
	return m.found, true
}

// accept files one checkpoint record under its owner: this rank's own
// completions (stolen tasks coming home, adopted orphans re-arriving) join
// the local set; anything else is stored on the owner's behalf.
func (m *Manager) accept(k Key, c ckpt, owner int) {
	m.stored_.Inc()
	if owner == m.eng.Rank() {
		m.local[k] = c
		delete(m.stored, k)
		return
	}
	c.owner = int32(owner)
	m.stored[k] = c
}

// onCkpt accepts a checkpoint frame from the wire. The AM payload is only
// valid during the callback, so the record's copy is load-bearing. A v1
// frame's owner is the sender; a v2 frame names its owner explicitly.
func (m *Manager) onCkpt(_ core.Engine, _ core.Tag, data []byte, src int) {
	flows, k, owner, err := decodeWire(data, m.view[:0])
	m.view = flows
	defer clear(flows) // the scratch must not pin the AM payload
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
	m.accept(k, newCkpt(flows, data), owner)
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

// appendFrame appends k's checkpoint frame to b: v1 for owner < 0 (the
// owner is the sender), otherwise v2 stamped with owner.
func appendFrame(b []byte, k Key, flows []FlowCkpt, owner int) []byte {
	if owner < 0 {
		b = append(b, ckptMagic0, ckptMagic1, ckptVersion)
	} else {
		b = append(b, ckptMagic0, ckptMagic1, ckptVersion2)
		b = binary.LittleEndian.AppendUint32(b, uint32(owner))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(k.Class))
	b = binary.LittleEndian.AppendUint64(b, uint64(k.Index))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(flows)))
	for _, f := range flows {
		b = binary.LittleEndian.AppendUint32(b, uint32(f.Flow))
		b = binary.LittleEndian.AppendUint64(b, uint64(f.Size))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Data)))
		b = append(b, f.Data...)
	}
	return b
}

// decodeWire parses a checkpoint frame zero-copy, appending its flows to
// flows: their Data windows alias b, so a caller that keeps them past b's
// lifetime copies them (newCkpt). The returned owner is the v2 owner stamp,
// or -1 for a v1 frame (owner implied by the sender). Anything malformed —
// short buffer, wrong magic or version, a flow count the frame cannot hold,
// negative sizes or owner, trailing garbage — is an error, never a panic
// (fuzzed). The returned slice is flows grown, even with an error.
func decodeWire(b []byte, flows []FlowCkpt) ([]FlowCkpt, Key, int, error) {
	var k Key
	if len(b) < ckptHdrLen {
		return flows, k, -1, fmt.Errorf("recover: checkpoint truncated: %d bytes, header needs %d", len(b), ckptHdrLen)
	}
	if b[0] != ckptMagic0 || b[1] != ckptMagic1 {
		return flows, k, -1, fmt.Errorf("recover: checkpoint magic %#x%#x", b[0], b[1])
	}
	owner := -1
	rest := b[3:]
	switch b[2] {
	case ckptVersion:
	case ckptVersion2:
		if len(b) < ckptHdrLen2 {
			return flows, k, -1, fmt.Errorf("recover: v2 checkpoint truncated: %d bytes, header needs %d", len(b), ckptHdrLen2)
		}
		o := int32(binary.LittleEndian.Uint32(rest[:4]))
		if o < 0 {
			return flows, k, -1, fmt.Errorf("recover: checkpoint owner %d negative", o)
		}
		owner = int(o)
		rest = rest[4:]
	default:
		return flows, k, -1, fmt.Errorf("recover: checkpoint version %d, want %d or %d", b[2], ckptVersion, ckptVersion2)
	}
	k.Class = int32(binary.LittleEndian.Uint32(rest[:4]))
	k.Index = int64(binary.LittleEndian.Uint64(rest[4:12]))
	nflows := int(binary.LittleEndian.Uint16(rest[12:14]))
	if k.Index < 0 {
		return flows, k, owner, fmt.Errorf("recover: checkpoint index %d negative", k.Index)
	}
	rest = rest[14:]
	// The count is untrusted: check it against the bytes that follow before
	// it sizes anything.
	if nflows > len(rest)/ckptFlowLen {
		return flows, k, owner, fmt.Errorf("recover: checkpoint claims %d flows in %d bytes", nflows, len(rest))
	}
	for i := 0; i < nflows; i++ {
		if len(rest) < ckptFlowLen {
			return flows, k, owner, fmt.Errorf("recover: checkpoint flow %d truncated", i)
		}
		var f FlowCkpt
		f.Flow = int32(binary.LittleEndian.Uint32(rest[:4]))
		f.Size = int64(binary.LittleEndian.Uint64(rest[4:12]))
		dlen := int(int32(binary.LittleEndian.Uint32(rest[12:16])))
		rest = rest[ckptFlowLen:]
		if f.Size < 0 || dlen < 0 || dlen > len(rest) {
			return flows, k, owner, fmt.Errorf("recover: checkpoint flow %d data length %d invalid", i, dlen)
		}
		if dlen > 0 {
			f.Data = rest[:dlen:dlen]
		}
		rest = rest[dlen:]
		flows = append(flows, f)
	}
	if len(rest) != 0 {
		return flows, k, owner, fmt.Errorf("recover: checkpoint has %d trailing bytes", len(rest))
	}
	return flows, k, owner, nil
}
