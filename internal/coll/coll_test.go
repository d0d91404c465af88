package coll_test

import (
	"bytes"
	"fmt"
	"testing"

	"amtlci/internal/buf"
	"amtlci/internal/coll"
	"amtlci/internal/core/stack"
	"amtlci/internal/fabric"
	"amtlci/internal/rel"
	"amtlci/internal/sim"
)

// testTune shrinks the protocol thresholds so modest test payloads cross
// the eager/rendezvous boundary and segment several times.
func testTune() coll.Tune {
	t := coll.DefaultTune()
	t.EagerMax = 256
	t.SegSize = 1 << 10
	return t
}

// testRanks is the acceptance matrix: odd, even, power-of-two and
// non-power-of-two counts.
var testRanks = []int{2, 3, 4, 7, 8, 16, 64}

// testSizes crosses zero, eager, single-segment rendezvous, and
// multi-segment rendezvous under testTune.
var testSizes = []int64{1, 100, 300, 3000, 10000}

// pattern is rank r's deterministic contribution.
func pattern(r int, size int64) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(r*31 + i*7 + 13)
	}
	return b
}

func buildCommsOpts(o stack.Options) (*stack.Stack, []*coll.Communicator) {
	s := stack.Build(o)
	comms := make([]*coll.Communicator, o.Ranks)
	for r := 0; r < o.Ranks; r++ {
		comms[r] = coll.New(s.Engines[r], coll.DefaultTagBase, testTune())
	}
	return s, comms
}

func buildComms(b stack.Backend, n int) (*stack.Stack, []*coll.Communicator) {
	return buildCommsOpts(stack.DefaultOptions(b, n))
}

// lossyOptions arms ~1% drop/duplicate/corrupt fault injection with the
// reliability layer interposed, so the collectives see an exactly-once
// in-order transport over a faulty wire.
func lossyOptions(b stack.Backend, n int, seed uint64) stack.Options {
	o := stack.DefaultOptions(b, n)
	o.Faults = &fabric.FaultConfig{Drop: 0.01, Duplicate: 0.01, Corrupt: 0.01, Seed: seed}
	rc := rel.DefaultConfig()
	o.Rel = &rc
	return o
}

// check is one verified collective call across all ranks: issue launches
// the operation on every communicator (marking completion), verify runs
// after the simulation drains.
type check struct {
	name   string
	done   []bool
	verify func(t *testing.T)
}

// runCollectiveMatrix issues the full op × algorithm × root × size matrix on
// an already-built deployment, runs the simulation to quiescence, and
// verifies every result against the sequential reference.
func runCollectiveMatrix(t *testing.T, s *stack.Stack, comms []*coll.Communicator) {
	n := len(comms)
	var checks []*check
	mark := func(c *check, r int) func() {
		return func() {
			if c.done[r] {
				t.Errorf("%s: rank %d completed twice", c.name, r)
			}
			c.done[r] = true
		}
	}
	newCheck := func(name string) *check {
		c := &check{name: name, done: make([]bool, n)}
		checks = append(checks, c)
		return c
	}

	roots := []int{0, n - 1}
	if n > 8 {
		roots = []int{n / 3}
	}

	// All operations are issued up front, in the same order on
	// every rank; sequence numbers keep the concurrent
	// collectives apart, which doubles as an interleaving
	// stress test.
	for _, algo := range coll.Algorithms(coll.OpBcast) {
		for _, root := range roots {
			for _, size := range testSizes {
				c := newCheck(fmt.Sprintf("bcast/%v/root%d/%d", algo, root, size))
				bufs := make([][]byte, n)
				for r := 0; r < n; r++ {
					if r == root {
						bufs[r] = pattern(root, size)
					} else {
						bufs[r] = make([]byte, size)
					}
					comms[r].Bcast(buf.FromBytes(bufs[r]), root, algo, mark(c, r))
				}
				want := pattern(root, size)
				c.verify = func(t *testing.T) {
					for r := 0; r < n; r++ {
						if !bytes.Equal(bufs[r], want) {
							t.Errorf("%s: rank %d data mismatch", c.name, r)
							return
						}
					}
				}
			}
		}
	}

	for _, algo := range coll.Algorithms(coll.OpReduce) {
		for _, root := range roots {
			for _, size := range testSizes {
				c := newCheck(fmt.Sprintf("reduce/%v/root%d/%d", algo, root, size))
				dst := make([]byte, size)
				for r := 0; r < n; r++ {
					var d buf.Buf
					if r == root {
						d = buf.FromBytes(dst)
					}
					comms[r].Reduce(d, buf.FromBytes(pattern(r, size)),
						coll.Sum, root, algo, mark(c, r))
				}
				want := make([]byte, size)
				for r := 0; r < n; r++ {
					for i, v := range pattern(r, size) {
						want[i] += v
					}
				}
				c.verify = func(t *testing.T) {
					if !bytes.Equal(dst, want) {
						t.Errorf("%s: root data mismatch", c.name)
					}
				}
			}
		}
	}

	for _, algo := range coll.Algorithms(coll.OpAllreduce) {
		for _, size := range testSizes {
			c := newCheck(fmt.Sprintf("allreduce/%v/%d", algo, size))
			dsts := make([][]byte, n)
			for r := 0; r < n; r++ {
				dsts[r] = make([]byte, size)
				comms[r].Allreduce(buf.FromBytes(dsts[r]),
					buf.FromBytes(pattern(r, size)), coll.Sum, algo, mark(c, r))
			}
			want := make([]byte, size)
			for r := 0; r < n; r++ {
				for i, v := range pattern(r, size) {
					want[i] += v
				}
			}
			c.verify = func(t *testing.T) {
				for r := 0; r < n; r++ {
					if !bytes.Equal(dsts[r], want) {
						t.Errorf("%s: rank %d data mismatch", c.name, r)
						return
					}
				}
			}
		}
	}

	for _, algo := range coll.Algorithms(coll.OpAllgather) {
		for _, size := range testSizes {
			c := newCheck(fmt.Sprintf("allgather/%v/%d", algo, size))
			dsts := make([][]byte, n)
			for r := 0; r < n; r++ {
				dsts[r] = make([]byte, size*int64(n))
				comms[r].Allgather(buf.FromBytes(dsts[r]),
					buf.FromBytes(pattern(r, size)), algo, mark(c, r))
			}
			want := make([]byte, 0, size*int64(n))
			for r := 0; r < n; r++ {
				want = append(want, pattern(r, size)...)
			}
			c.verify = func(t *testing.T) {
				for r := 0; r < n; r++ {
					if !bytes.Equal(dsts[r], want) {
						t.Errorf("%s: rank %d data mismatch", c.name, r)
						return
					}
				}
			}
		}
	}

	for _, algo := range coll.Algorithms(coll.OpBarrier) {
		c := newCheck(fmt.Sprintf("barrier/%v", algo))
		for r := 0; r < n; r++ {
			comms[r].Barrier(algo, mark(c, r))
		}
		c.verify = func(*testing.T) {}
	}

	s.Eng.Run()
	for _, c := range checks {
		for r := 0; r < n; r++ {
			if !c.done[r] {
				t.Fatalf("%s: rank %d never completed", c.name, r)
			}
		}
		c.verify(t)
	}
	for r := 0; r < n; r++ {
		if err := comms[r].Err(); err != nil {
			t.Fatalf("rank %d communicator failed: %v", r, err)
		}
	}
}

func TestCollectivesMatchSequentialReference(t *testing.T) {
	for _, backend := range stack.Backends {
		for _, n := range testRanks {
			t.Run(fmt.Sprintf("%v/n%d", backend, n), func(t *testing.T) {
				s, comms := buildComms(backend, n)
				runCollectiveMatrix(t, s, comms)
			})
		}
	}
}

// TestCollectivesSurviveLossyFabric reruns the full matrix over a fabric
// dropping, duplicating, and corrupting ~1% of messages each, with the
// reliability layer restoring exactly-once in-order delivery. Results must
// match the sequential reference bit for bit on both backends, and the
// injected faults must actually have fired.
func TestCollectivesSurviveLossyFabric(t *testing.T) {
	lossyRanks := testRanks
	if testing.Short() {
		lossyRanks = []int{2, 4, 8}
	}
	for _, backend := range stack.Backends {
		for _, n := range lossyRanks {
			t.Run(fmt.Sprintf("%v/n%d", backend, n), func(t *testing.T) {
				s, comms := buildCommsOpts(lossyOptions(backend, n, 0xC011))
				runCollectiveMatrix(t, s, comms)
				m := s.Metrics
				for _, class := range []string{"faults_dropped", "faults_duplicated", "faults_corrupted"} {
					if m.Total("fabric", class) == 0 {
						t.Fatalf("fault injection idle: %s is 0", class)
					}
				}
				if m.Total("rel", "retransmits") == 0 {
					t.Fatalf("no retransmissions despite %d drops", m.Total("fabric", "faults_dropped"))
				}
			})
		}
	}
}

// TestBarrierHoldsUntilLastEntry staggers barrier entry and checks that no
// rank exits before the last rank has entered.
func TestBarrierHoldsUntilLastEntry(t *testing.T) {
	for _, backend := range stack.Backends {
		for _, algo := range coll.Algorithms(coll.OpBarrier) {
			for _, n := range []int{3, 8, 16} {
				t.Run(fmt.Sprintf("%v/%v/n%d", backend, algo, n), func(t *testing.T) {
					s, comms := buildComms(backend, n)
					entry := make([]sim.Time, n)
					exit := make([]sim.Time, n)
					for r := 0; r < n; r++ {
						r := r
						delay := sim.Duration(r) * 50 * sim.Microsecond
						s.Eng.After(delay, func() {
							entry[r] = s.Eng.Now()
							comms[r].Barrier(algo, func() { exit[r] = s.Eng.Now() })
						})
					}
					s.Eng.Run()
					var lastEntry sim.Time
					for r := 0; r < n; r++ {
						if entry[r] > lastEntry {
							lastEntry = entry[r]
						}
					}
					for r := 0; r < n; r++ {
						if exit[r] == 0 {
							t.Fatalf("rank %d never exited", r)
						}
						if exit[r] < lastEntry {
							t.Errorf("rank %d exited at %v before last entry at %v",
								r, exit[r], lastEntry)
						}
					}
				})
			}
		}
	}
}

// TestCollectivesOnVirtualBuffers runs the full algorithm matrix on
// storage-less payloads (the collbench mode): completion and determinism
// without byte content.
func TestCollectivesOnVirtualBuffers(t *testing.T) {
	for _, backend := range stack.Backends {
		t.Run(backend.String(), func(t *testing.T) {
			n := 7
			const size = int64(1 << 20)
			s, comms := buildComms(backend, n)
			left := 0
			dec := func() { left-- }
			issue := func(f func(c *coll.Communicator, done func())) {
				left += n
				for r := 0; r < n; r++ {
					f(comms[r], dec)
				}
			}
			for _, algo := range coll.Algorithms(coll.OpBcast) {
				algo := algo
				issue(func(c *coll.Communicator, done func()) {
					c.Bcast(buf.Virtual(size), 0, algo, done)
				})
			}
			for _, algo := range coll.Algorithms(coll.OpReduce) {
				algo := algo
				issue(func(c *coll.Communicator, done func()) {
					c.Reduce(buf.Virtual(size), buf.Virtual(size), coll.Sum, 0, algo, done)
				})
			}
			for _, algo := range coll.Algorithms(coll.OpAllreduce) {
				algo := algo
				issue(func(c *coll.Communicator, done func()) {
					c.Allreduce(buf.Virtual(size), buf.Virtual(size), coll.Sum, algo, done)
				})
			}
			for _, algo := range coll.Algorithms(coll.OpAllgather) {
				algo := algo
				issue(func(c *coll.Communicator, done func()) {
					c.Allgather(buf.Virtual(size*int64(n)), buf.Virtual(size), algo, done)
				})
			}
			s.Eng.Run()
			if left != 0 {
				t.Fatalf("%d rank-operations never completed", left)
			}
		})
	}
}

// TestCollectivesDeterministic runs one mixed workload twice and requires
// bit-identical virtual end times.
func TestCollectivesDeterministic(t *testing.T) {
	run := func(backend stack.Backend) sim.Time {
		n := 8
		s, comms := buildComms(backend, n)
		for r := 0; r < n; r++ {
			c := comms[r]
			c.Bcast(buf.Virtual(100<<10), 2, coll.Auto, nil)
			c.Allreduce(buf.Virtual(64<<10), buf.Virtual(64<<10), coll.Sum, coll.Auto, nil)
			c.Barrier(coll.Auto, nil)
		}
		return s.Eng.Run()
	}
	for _, backend := range stack.Backends {
		a, b := run(backend), run(backend)
		if a != b {
			t.Errorf("%v: end times differ: %v vs %v", backend, a, b)
		}
	}
}

// TestSingleRankCollectives covers the degenerate communicator.
func TestSingleRankCollectives(t *testing.T) {
	s, comms := buildComms(stack.LCI, 1)
	c := comms[0]
	src := []byte{1, 2, 3}
	dst := make([]byte, 3)
	all := make([]byte, 3)
	completions := 0
	done := func() { completions++ }
	c.Bcast(buf.FromBytes(src), 0, coll.Auto, done)
	c.Reduce(buf.FromBytes(dst), buf.FromBytes(src), coll.Sum, 0, coll.Auto, done)
	c.Allgather(buf.FromBytes(all), buf.FromBytes(src), coll.Auto, done)
	c.Barrier(coll.Auto, done)
	s.Eng.Run()
	if completions != 4 {
		t.Fatalf("completions = %d, want 4", completions)
	}
	if !bytes.Equal(dst, src) || !bytes.Equal(all, src) {
		t.Fatalf("single-rank results wrong: dst=%v all=%v", dst, all)
	}
}

// TestReduceOps exercises the non-default operators end to end.
func TestReduceOps(t *testing.T) {
	ops := []coll.Op{coll.XOR, coll.Max}
	refs := []func(a, b byte) byte{
		func(a, b byte) byte { return a ^ b },
		func(a, b byte) byte {
			if b > a {
				return b
			}
			return a
		},
	}
	for i, op := range ops {
		n := 5
		const size = 400
		s, comms := buildComms(stack.MPI, n)
		dsts := make([][]byte, n)
		for r := 0; r < n; r++ {
			dsts[r] = make([]byte, size)
			comms[r].Allreduce(buf.FromBytes(dsts[r]), buf.FromBytes(pattern(r, size)),
				op, coll.Ring, nil)
		}
		s.Eng.Run()
		want := pattern(0, size)
		for r := 1; r < n; r++ {
			for j, v := range pattern(r, size) {
				want[j] = refs[i](want[j], v)
			}
		}
		for r := 0; r < n; r++ {
			if !bytes.Equal(dsts[r], want) {
				t.Errorf("op %s: rank %d mismatch", op.Name, r)
			}
		}
	}
}

func TestPickValidatesAndCovers(t *testing.T) {
	tune := coll.DefaultTune()
	kinds := []coll.Kind{coll.OpBcast, coll.OpReduce, coll.OpAllreduce, coll.OpAllgather, coll.OpBarrier}
	for _, k := range kinds {
		algos := coll.Algorithms(k)
		if len(algos) < 2 {
			t.Errorf("%v: only %d algorithms", k, len(algos))
		}
		for _, n := range []int{1, 2, 3, 64, 1024} {
			for _, size := range []int64{0, 1 << 10, 1 << 20, 64 << 20} {
				pick := tune.Pick(k, size, n)
				ok := false
				for _, a := range algos {
					if a == pick {
						ok = true
					}
				}
				if !ok {
					t.Errorf("Pick(%v, %d, %d) = %v, not an implemented algorithm", k, size, n, pick)
				}
			}
		}
	}
}

func TestSelectorPrefersLatencyAlgosWhenSmall(t *testing.T) {
	tune := coll.DefaultTune()
	// Small payloads: log-depth schedules.
	if got := tune.Pick(coll.OpBcast, 1<<10, 16); got != coll.Binomial {
		t.Errorf("small bcast pick = %v", got)
	}
	if got := tune.Pick(coll.OpAllreduce, 1<<10, 16); got != coll.RecursiveDoubling {
		t.Errorf("small allreduce pick = %v", got)
	}
	// Large payloads: bandwidth schedules.
	if got := tune.Pick(coll.OpBcast, 64<<20, 8); got != coll.Chain {
		t.Errorf("large bcast pick = %v", got)
	}
	if got := tune.Pick(coll.OpAllreduce, 64<<20, 8); got != coll.Ring {
		t.Errorf("large allreduce pick = %v", got)
	}
}

func TestTreeSplitMatchesBinomialShape(t *testing.T) {
	// Every rank of a 13-rank list appears exactly once across the
	// child-rooted subtrees.
	ranks := make([]int32, 13)
	for i := range ranks {
		ranks[i] = int32(i * 3)
	}
	seen := map[int32]int{}
	var walk func(sub []int32)
	walk = func(sub []int32) {
		seen[sub[0]]++
		for _, ch := range coll.TreeSplit(nil, sub) {
			walk(ch)
		}
	}
	walk(ranks)
	for _, r := range ranks {
		if seen[r] != 1 {
			t.Errorf("rank %d seen %d times", r, seen[r])
		}
	}
	if len(coll.TreeSplit(nil, []int32{7})) != 0 {
		t.Error("singleton list has children")
	}
}
