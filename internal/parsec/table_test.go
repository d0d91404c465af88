package parsec

import (
	"container/heap"
	"math/rand"
	"testing"
)

// checkTable compares tb with the reference map entry by entry, in both
// directions, and checks the structural invariants lookups depend on.
func checkTable(t *testing.T, tb *flatTable[int64], ref map[flowKey]int64) {
	t.Helper()
	if tb.n != len(ref) {
		t.Fatalf("n = %d, reference has %d", tb.n, len(ref))
	}
	for k, want := range ref {
		got := tb.get(k)
		if got == nil || *got != want {
			t.Fatalf("get(%v) = %v, want %d", k, got, want)
		}
	}
	seen := 0
	tb.each(func(k flowKey, v *int64) {
		seen++
		if want, ok := ref[k]; !ok || want != *v {
			t.Fatalf("each yields %v=%d, reference has %d (present %v)", k, *v, want, ok)
		}
	})
	if seen != len(ref) {
		t.Fatalf("each visited %d entries, want %d", seen, len(ref))
	}
	size := len(tb.slots)
	if size != 0 && (size < minTableSlots || size&(size-1) != 0) {
		t.Fatalf("slot count %d is not a power of two >= %d", size, minTableSlots)
	}
	if tb.n*4 > size*3 {
		t.Fatalf("load %d/%d exceeds 3/4", tb.n, size)
	}
	// No hole between an entry's home and its slot (tombstone-free probing).
	mask := uint32(size - 1)
	for i := range tb.slots {
		if tb.slots[i].hash == 0 {
			continue
		}
		for j := tb.slots[i].hash & mask; j != uint32(i); j = (j + 1) & mask {
			if tb.slots[j].hash == 0 {
				t.Fatalf("hole at %d between home and slot %d", j, i)
			}
		}
	}
}

// FuzzFlatTable drives insert/get/remove/reset (and the grows they cause)
// from a byte program and compares every step's visible state with a Go map.
// Keys come from a small universe, so the program keeps hitting present
// keys, and the table stays at its minimum size for long stretches, which is
// where probe runs wrap around the array end and removes shift across it.
func FuzzFlatTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 1, 1, 2, 0, 9, 3, 0})
	f.Add([]byte("\x00\x10\x00\x11\x00\x12\x00\x13\x00\x14\x00\x15\x00\x16\x02\x10\x02\x13\x00\x17"))
	wrap := make([]byte, 0, 64)
	for i := byte(0); i < 24; i++ { // fill past two grows, then drain
		wrap = append(wrap, 0, i)
	}
	for i := byte(0); i < 24; i++ {
		wrap = append(wrap, 2, i)
	}
	f.Add(wrap)
	f.Fuzz(func(t *testing.T, prog []byte) {
		var tb flatTable[int64]
		ref := map[flowKey]int64{}
		for pc := 0; pc+1 < len(prog); pc += 2 {
			op, arg := prog[pc]%4, prog[pc+1]
			k := flowKey{TaskID{Class: int32(arg % 3), Index: int64(arg>>2) * 120}, int32(arg % 2)}
			switch op {
			case 0: // insert or overwrite
				v, fresh := tb.insert(k)
				if _, had := ref[k]; fresh == had {
					t.Fatalf("insert(%v) fresh=%v, reference had=%v", k, fresh, had)
				}
				if fresh && *v != 0 {
					t.Fatalf("fresh slot for %v not zeroed: %d", k, *v)
				}
				*v = int64(pc) + 1
				ref[k] = int64(pc) + 1
			case 1: // get
				got := tb.get(k)
				if want, ok := ref[k]; ok != (got != nil) || (ok && *got != want) {
					t.Fatalf("get(%v) = %v, reference %d (present %v)", k, got, want, ok)
				}
			case 2: // remove
				_, had := ref[k]
				if tb.remove(k) != had {
					t.Fatalf("remove(%v) disagrees with reference (had %v)", k, had)
				}
				delete(ref, k)
			case 3:
				if arg%16 == 0 { // rare, or programs never grow
					tb.reset()
					clear(ref)
					if tb.slots != nil {
						t.Fatal("reset kept the slot array")
					}
				}
			}
			checkTable(t, &tb, ref)
		}
	})
}

// TestFlatTableCollidingRunWrapsAndShifts builds, by search, keys whose home
// is the LAST slot of a minimum-size table, so the probe run wraps to slot 0,
// and removes them in every order: each remaining key must stay reachable
// after the backward shift crosses the array end.
func TestFlatTableCollidingRunWrapsAndShifts(t *testing.T) {
	var keys []flowKey
	for i := int64(0); len(keys) < 4; i++ {
		k := flowKey{task: TaskID{Index: i}}
		if hashKey(k)&(minTableSlots-1) == minTableSlots-1 {
			keys = append(keys, k)
		}
	}
	perm := []int{0, 1, 2, 3}
	var try func(int)
	try = func(at int) {
		if at < len(perm) {
			for i := at; i < len(perm); i++ {
				perm[at], perm[i] = perm[i], perm[at]
				try(at + 1)
				perm[at], perm[i] = perm[i], perm[at]
			}
			return
		}
		var tb flatTable[int64]
		ref := map[flowKey]int64{}
		for i, k := range keys {
			v, _ := tb.insert(k)
			*v, ref[k] = int64(i), int64(i)
		}
		if len(tb.slots) != minTableSlots {
			t.Fatalf("table grew to %d slots; the run no longer wraps", len(tb.slots))
		}
		for _, i := range perm {
			if !tb.remove(keys[i]) {
				t.Fatalf("order %v: key %d not found", perm, i)
			}
			delete(ref, keys[i])
			checkTable(t, &tb, ref)
		}
	}
	try(0)
}

// refHeap is the container/heap queue prioQueue replaced, kept as the
// reference the typed heap is compared against.
type refHeap []prioItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].before(&h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(prioItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// TestPrioQueueMatchesContainerHeap interleaves random pushes and pops,
// with priorities drawn from a handful of values so FIFO tie-breaking does
// the ordering most of the time, and demands the same item from both heaps
// at every pop.
func TestPrioQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var q prioQueue
	var ref refHeap
	var seq uint64
	pop := func() {
		got, want := q.Pop(), heap.Pop(&ref).(prioItem)
		if got != want {
			t.Fatalf("pop = %+v, container/heap pops %+v", got, want)
		}
	}
	for step := 0; step < 20000; step++ {
		if q.Len() != ref.Len() {
			t.Fatalf("len = %d, reference %d", q.Len(), ref.Len())
		}
		if q.Len() > 0 && rng.Intn(5) < 2 {
			pop()
			continue
		}
		prio, id, flow := int64(rng.Intn(4)), TaskID{Class: int32(rng.Intn(4)), Index: rng.Int63n(1000)}, int32(rng.Intn(3))
		seq++
		q.Push(prio, id, flow)
		heap.Push(&ref, prioItem{priority: prio, seq: seq, task: id, flow: flow})
	}
	for q.Len() > 0 {
		pop()
	}
	if ref.Len() != 0 {
		t.Fatalf("reference still holds %d items", ref.Len())
	}
}
