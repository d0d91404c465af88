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

// TestFlatTableCollidingRunWrapsAndShifts builds, by a bounded search over
// index and flow, keys whose home is the LAST slot of a minimum-size table,
// so the probe run wraps to slot 0, and removes them in every order: each
// remaining key must stay reachable after the backward shift crosses the
// array end.
func TestFlatTableCollidingRunWrapsAndShifts(t *testing.T) {
	var keys []flowKey
	for i := int64(0); i < 64 && len(keys) < 4; i++ {
		for f := int32(0); f < 4 && len(keys) < 4; f++ {
			k := flowKey{TaskID{Index: i}, f}
			if hashKey(k)&(minTableSlots-1) == minTableSlots-1 {
				keys = append(keys, k)
			}
		}
	}
	if len(keys) < 4 {
		t.Fatalf("only %d of 256 keys have home slot %d in a %d-slot table; need 4", len(keys), minTableSlots-1, minTableSlots)
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

// probeLengths inserts keys into an empty table and returns the mean and the
// longest count of slots a get of one of them reads.
func probeLengths(keys []flowKey) (mean float64, longest int) {
	var tb flatTable[int64]
	for _, k := range keys {
		tb.insert(k)
	}
	mask := uint32(len(tb.slots) - 1)
	sum := 0
	for i := range tb.slots {
		if h := tb.slots[i].hash; h != 0 {
			p := int((uint32(i)-h)&mask) + 1
			sum += p
			longest = max(longest, p)
		}
	}
	return float64(sum) / float64(len(keys)), longest
}

// choleskyWavefront is the key set of tiled Cholesky panel steps k at T
// tiles per side, with the ID packing of internal/cholesky: POTRF k, TRSM and
// SYRK k·T+m, GEMM (k·T+m)·T+n. keep selects the (m, n) tiles held.
func choleskyWavefront(T int64, steps []int64, keep func(m, n int64) bool) []flowKey {
	var keys []flowKey
	for _, k := range steps {
		if keep(k, k) {
			keys = append(keys, flowKey{task: TaskID{Class: 0, Index: k}})
		}
		for m := k + 1; m < T; m++ {
			if keep(m, k) {
				keys = append(keys, flowKey{task: TaskID{Class: 1, Index: k*T + m}})
			}
			if keep(m, m) {
				keys = append(keys, flowKey{task: TaskID{Class: 2, Index: k*T + m}})
			}
			for n := k + 1; n < m; n++ {
				if keep(m, n) {
					keys = append(keys, flowKey{task: TaskID{Class: 3, Index: (k*T+m)*T + n}})
				}
			}
		}
	}
	return keys
}

// TestFlatTableProbeLengths bounds the mean and the longest probe of a get
// over the live sets of the two workload families, with the whole set in the
// table at once (its peak load):
//
//   - the §6.2 ping-pong window: 16,384 fragments of 8 KiB in flight, task
//     indices 2·f, flows 0 and 1, plus the SYNC task (index 1);
//   - the tasks of two consecutive Cholesky panel steps at T = 72 and T =
//     120 (the HiCMA workloads' tile counts), all of them, and the share of
//     one rank of a 4×4 block-cyclic grid, whose indices are strided.
//
// mean / longest probe, at the fully mixed hash the table had before home
// groups and with them:
//
//	key set              slots   mixed        home groups
//	ping-pong window     65,536  1.495 / 24   1.884 / 101
//	wavefront T=72        8,192  1.879 / 34   5.822 / 136
//	wavefront T=120      32,768  1.374 / 14   2.710 / 89
//	one rank, T=120       8,192  1.322 / 11   1.341 / 25
//
// The dense wavefront is the worst case: every index of a group present, at
// 0.62 load. A rank of the HiCMA workloads holds a strided share of it. Over
// whole runs at seed 3, the mean probe of a get went from 1.19 to 1.22 on
// hicma_strong and from 1.43 to 1.72 on pingpong_eager.
func TestFlatTableProbeLengths(t *testing.T) {
	var window []flowKey
	for f := int64(0); f < 16384; f++ {
		window = append(window, flowKey{TaskID{Index: 2 * f}, 0}, flowKey{TaskID{Index: 2 * f}, 1})
	}
	window = append(window, flowKey{task: TaskID{Index: 1}})
	all := func(m, n int64) bool { return true }
	oneRank := func(m, n int64) bool { return m%4 == 1 && n%4 == 2 }
	for _, tc := range []struct {
		name    string
		keys    []flowKey
		mean    float64
		longest int
	}{
		{"ping-pong window", window, 2.0, 110},
		{"wavefront T=72", choleskyWavefront(72, []int64{1, 2}, all), 6.2, 150},
		{"wavefront T=120", choleskyWavefront(120, []int64{1, 2}, all), 2.9, 100},
		{"one rank T=120", choleskyWavefront(120, []int64{0, 1, 2, 3, 4, 5, 6, 7}, oneRank), 1.45, 30},
	} {
		mean, longest := probeLengths(tc.keys)
		t.Logf("%-18s %6d keys: mean probe %.3f, longest %d", tc.name, len(tc.keys), mean, longest)
		if mean > tc.mean || longest > tc.longest {
			t.Errorf("%s: mean probe %.3f, longest %d; want at most %.2f and %d", tc.name, mean, longest, tc.mean, tc.longest)
		}
	}
}

// refHeap is a container/heap queue in the order (priority desc, push
// order), seq being the push count: the reference prioQueue is compared
// against.
type refHeap []refItem

type refItem struct {
	prioItem
	seq uint64
}

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// queuePair drives a prioQueue and the reference heap side by side.
type queuePair struct {
	q   prioQueue
	ref refHeap
	seq uint64
}

func newQueuePair() *queuePair {
	return &queuePair{q: prioQueue{cells: new(cellArena[queued])}}
}

func (p *queuePair) push(prio int64, id TaskID, flow int32) {
	p.seq++
	p.q.Push(prio, id, flow)
	heap.Push(&p.ref, refItem{prioItem{priority: prio, task: id, flow: flow}, p.seq})
}

// pop demands the same length before, and the same item, from both queues.
func (p *queuePair) pop(t testing.TB) {
	t.Helper()
	if p.q.Len() != p.ref.Len() {
		t.Fatalf("len = %d, reference %d", p.q.Len(), p.ref.Len())
	}
	got, want := p.q.Pop(), heap.Pop(&p.ref).(refItem).prioItem
	if got != want {
		t.Fatalf("pop = %+v, container/heap pops %+v", got, want)
	}
}

// drain pops both queues empty.
func (p *queuePair) drain(t testing.TB) {
	t.Helper()
	for p.ref.Len() > 0 {
		p.pop(t)
	}
	if p.q.Len() != 0 {
		t.Fatalf("queue still holds %d items", p.q.Len())
	}
}

// TestPrioQueueMatchesContainerHeap interleaves random pushes and pops and
// demands the same item from both queues at every pop, in two regimes: a
// handful of priorities, so FIFO tie-breaking does the ordering most of the
// time (the ping-pong shape), and thousands of distinct ones drifting down
// as the run advances, so most pushes open a run in the middle (the HiCMA
// shape, whose priorities fall with the panel step). Every item is distinct
// (Index is the push count), so any reordering shows.
func TestPrioQueueMatchesContainerHeap(t *testing.T) {
	for _, tc := range []struct {
		name string
		prio func(rng *rand.Rand, step int) int64
	}{
		{"few", func(rng *rand.Rand, _ int) int64 { return int64(rng.Intn(4)) }},
		{"many", func(rng *rand.Rand, step int) int64 { return int64(20000-step+rng.Intn(3000)) * 4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			p := newQueuePair()
			for step := 0; step < 20000; step++ {
				if p.q.Len() > 0 && rng.Intn(5) < 2 {
					p.pop(t)
					continue
				}
				p.push(tc.prio(rng, step), TaskID{Class: int32(rng.Intn(4)), Index: int64(step)}, int32(rng.Intn(3)))
			}
			p.drain(t)
		})
	}
}

// FuzzPrioQueue runs a byte program against the reference heap. Each
// instruction pops, resets, pushes one item, or pushes a burst: up to 16
// items under one priority, or up to 16 items under as many distinct
// priorities spread over a wide range, so runs are opened, appended to and
// emptied at the top, the bottom and in between.
func FuzzPrioQueue(f *testing.F) {
	f.Add([]byte{1, 5, 1, 5, 0, 1, 9, 0, 0, 0})
	f.Add([]byte{2, 0x8f, 3, 0x8f, 0, 0, 2, 0x03, 0, 0, 0, 0})
	f.Add([]byte{3, 0xff, 3, 0x10, 2, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 0x3f, 3, 0x21, 0, 0xff, 1, 3, 2, 0x15, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		p := newQueuePair()
		for pc := 0; pc+1 < len(prog); pc += 2 {
			op, arg := prog[pc]%4, prog[pc+1]
			id := TaskID{Class: int32(arg % 3), Index: int64(pc)}
			switch op {
			case 0:
				if arg == 0xff { // a restart: retire every cell, then reuse them
					p.q.reset()
					p.ref = p.ref[:0]
				} else if p.q.Len() > 0 {
					p.pop(t)
				}
			case 1:
				p.push(int64(arg%8), id, int32(arg%2))
			case 2: // burst of equal priorities
				for i := range int(arg%16) + 1 {
					p.push(int64(arg>>4), id, int32(i))
				}
			case 3: // burst of distinct priorities, wide apart
				for i := range int64(arg%16) + 1 {
					p.push((int64(arg)*7919+i*104729)%50000-25000, id, int32(i))
				}
			}
		}
		p.drain(t)
	})
}
