package parsec

// flatTable is the open-addressing hash table behind every per-rank lookup
// on the task lifecycle's hot path: dependence counters and dataflow records
// keyed by (Class, Index, Flow), and the GraphPool's task index. It replaces
// Go maps there because the keys are three small integers — an integer mix
// and a linear probe over one contiguous array beat the generic map's
// hashing, group metadata and per-entry pointers — and because the runtime
// needs control over the table's memory: it is sized to the *live* set (a
// few hundred entries per rank, whatever the graph size), allocates nothing
// until the first insert, and gives everything back on reset.
//
// Invariants:
//
//   - len(slots) is zero or a power of two, at least minTableSlots; n counts
//     occupied slots and never exceeds 3/4 of len(slots).
//   - A slot is occupied iff its hash word is non-zero (hashKey sets the top
//     bit); an occupied slot's home position is hash & mask, and every slot
//     between an entry's home and its actual position is occupied — the
//     linear-probing invariant lookups rely on to stop at the first hole.
//   - remove restores that invariant by shifting later entries of the probe
//     run backwards into the hole, so the table never holds tombstones and
//     a long-running graph's probe lengths depend on the live set only.
//
// Pointer lifetime: get and insert return a pointer INTO the slot array. It
// is valid only until the next insert or remove on the same table — a grow
// reallocates the array and a backward shift moves neighbours. Callers
// re-fetch after anything that may touch the table (node.satisfy and the
// lazy-fetch loops fetch per iteration for this reason) and never store the
// pointer.
//
// A flatTable is not safe for concurrent mutation; concurrent get calls
// without a writer are, though nothing relies on it: a runtime table belongs
// to one rank, and the GraphPool whose index is read after construction runs
// on a serial domain only (GraphPool.Execute).
type flatTable[V any] struct {
	slots []flatSlot[V]
	n     int
}

// flatSlot spells the key out field by field: packed this way it takes 16
// bytes where a flowKey (two padded structs) takes 24, and the GraphPool's
// index keeps a slot per task of the graph for as long as the pool lives.
type flatSlot[V any] struct {
	index int64
	class int32
	flow  int32
	hash  uint32 // 0 = empty
	val   V
}

func (s *flatSlot[V]) holds(h uint32, k flowKey) bool {
	return s.hash == h && s.index == k.task.Index && s.class == k.task.Class && s.flow == k.flow
}

func (s *flatSlot[V]) key() flowKey {
	return flowKey{TaskID{Class: s.class, Index: s.index}, s.flow}
}

// minTableSlots is the first allocation's size. Small on purpose: a
// 256-rank run holds 512 tables, most of which stay nearly empty.
const minTableSlots = 8

// homeBits sets the home group: the 1<<homeBits consecutive indices of one
// (Class, Flow) whose homes share a mixed base (hashKey).
const homeBits = 3

// hashKey maps the key to a non-zero 32-bit hash. Its home slot (hash & mask)
// is a base mixed from the index's home group, class and flow, plus twice
// the index's offset in the group: the 8 consecutive indices of a group fall
// on every other slot of a 16-slot span.
//
// That trades probe length for locality. A runtime touches neighbouring
// indices together (the fragments of one ping-pong window, the tiles of one
// panel row); mixing the whole index would send each to its own cache line,
// and on a ping-pong rank's 32,769-entry store almost every lookup would
// miss. A group, though, lands as one block, and overlapping blocks merge their probe runs.
// The stride of 2 leaves gaps that a colliding block fills, and adding the
// base rather than aligning groups keeps a rank's strided indices (a
// block-cyclic grid gives all of a rank's tiles the same index residues) off
// the same few offsets. Across groups the multiply-xorshift mix still
// matters: indices are dense polynomial encodings (k·T²+m·T+n), and without
// it whole rows would land on consecutive slots. TestFlatTableProbeLengths
// pins the probe lengths this gives.
func hashKey(k flowKey) uint32 {
	x := uint64(k.task.Index>>homeBits)*0x9E3779B97F4A7C15 ^
		(uint64(uint32(k.task.Class))<<32|uint64(uint32(k.flow)))*0xC2B2AE3D27D4EB4F
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return uint32(x) + 2*(uint32(k.task.Index)&(1<<homeBits-1)) | 1<<31
}

// get returns the value stored under k, or nil.
func (t *flatTable[V]) get(k flowKey) *V {
	if t.n == 0 {
		return nil
	}
	h := hashKey(k)
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.hash == 0 {
			return nil
		}
		if s.holds(h, k) {
			return &s.val
		}
	}
}

// insert returns the value slot for k, creating a zero value if k was
// absent; fresh reports which.
func (t *flatTable[V]) insert(k flowKey) (v *V, fresh bool) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	h := hashKey(k)
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.hash == 0 {
			s.index, s.class, s.flow, s.hash = k.task.Index, k.task.Class, k.flow, h
			t.n++
			return &s.val, true
		}
		if s.holds(h, k) {
			return &s.val, false
		}
	}
}

// remove deletes k and reports whether it was present.
func (t *flatTable[V]) remove(k flowKey) bool {
	if t.n == 0 {
		return false
	}
	h := hashKey(k)
	mask := uint32(len(t.slots) - 1)
	i := h & mask
	for ; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.hash == 0 {
			return false
		}
		if s.holds(h, k) {
			break
		}
	}
	// Backward shift: walk the rest of the probe run; an entry may move into
	// the hole unless its home lies cyclically in (hole, entry] — moving it
	// would then put it before its home and lookups would miss it.
	for j := (i + 1) & mask; t.slots[j].hash != 0; j = (j + 1) & mask {
		home := t.slots[j].hash & mask
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = flatSlot[V]{}
	t.n--
	return true
}

// reset empties the table and releases its memory.
func (t *flatTable[V]) reset() { *t = flatTable[V]{} }

// each calls fn for every entry, in slot order (deterministic for a given
// insert/remove history, but not sorted). fn must not mutate the table.
func (t *flatTable[V]) each(fn func(k flowKey, v *V)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.hash != 0 {
			fn(s.key(), &s.val)
		}
	}
}

func (t *flatTable[V]) grow() {
	old := t.slots
	size := 2 * len(old)
	if size < minTableSlots {
		size = minTableSlots
	}
	t.slots = make([]flatSlot[V], size)
	mask := uint32(size - 1)
	for i := range old {
		if old[i].hash == 0 {
			continue
		}
		j := old[i].hash & mask
		for t.slots[j].hash != 0 {
			j = (j + 1) & mask
		}
		t.slots[j] = old[i]
	}
}
