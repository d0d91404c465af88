package stack

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"amtlci/internal/buf"
	"amtlci/internal/core"
	"amtlci/internal/fabric"
	"amtlci/internal/metrics"
	"amtlci/internal/rel"
	"amtlci/internal/sim"
)

// forEachBackend runs a subtest against both communication engines: the
// engine API is backend-independent (Listing 1), so all semantics tests
// must pass identically.
func forEachBackend(t *testing.T, f func(t *testing.T, s *Stack)) {
	t.Helper()
	for _, b := range Backends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			o := DefaultOptions(b, 2)
			o.Fabric.Jitter = 0
			f(t, Build(o))
		})
	}
}

// engineCount reads rank's name counter from s's communication-engine layer.
func engineCount(s *Stack, name string, rank int) uint64 {
	layer := "lcice"
	if s.Backend == MPI {
		layer = "mpice"
	}
	return s.Metrics.Value(layer, name, rank)
}

func TestAMRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Stack) {
		const tag core.Tag = 10
		type rec struct {
			data string
			src  int
		}
		var got []rec
		for r := 0; r < 2; r++ {
			s.Engines[r].TagReg(tag, func(_ core.Engine, _ core.Tag, data []byte, src int) {
				got = append(got, rec{string(data), src})
			}, 4096)
		}
		s.Engines[0].SendAM(tag, 1, []byte("activate!"))
		s.Eng.Run()
		if len(got) != 1 || got[0].data != "activate!" || got[0].src != 0 {
			t.Fatalf("got = %+v", got)
		}
		if n := engineCount(s, "ams_sent", 0); n != 1 {
			t.Fatalf("sender sent %d active messages, want 1", n)
		}
	})
}

// TestSubmitRunsInOrderExactlyOnce pins the communication-thread contract
// that lets a caller hand every deferred step the same closure and keep the
// steps in a queue of its own (parsec's node.submit): whatever their costs,
// whether submitted from outside the thread or from an item running on it,
// and across the rank's own crash, the items run in submission order, each
// exactly once.
func TestSubmitRunsInOrderExactlyOnce(t *testing.T) {
	for _, b := range Backends {
		t.Run(b.String(), func(t *testing.T) {
			o := DefaultOptions(b, 2)
			o.Faults = &fabric.FaultConfig{Crashes: []fabric.NodeCrash{{Rank: 0, At: sim.Time(40 * sim.Microsecond)}}}
			s := Build(o)
			e := s.Engines[0]
			rng := sim.NewRNG(1)
			var submitted, ran []int
			var submit func(nested bool)
			submit = func(nested bool) {
				id := len(submitted)
				submitted = append(submitted, id)
				e.Submit(sim.Duration(rng.Intn(4))*sim.Microsecond, func() {
					ran = append(ran, id)
					if !nested && id%3 == 0 {
						submit(true)
					}
				})
			}
			for i := 0; i < 40; i++ {
				s.Eng.At(sim.Time(sim.Duration(2*i)*sim.Microsecond), func() {
					submit(false)
					submit(false)
				})
			}
			s.Eng.Run()
			if s.Eng.Now() < sim.Time(80*sim.Microsecond) || !slices.Equal(ran, submitted) {
				t.Fatalf("%d items submitted, ran %v, want each once in submission order (run ended at %v)",
					len(submitted), ran, s.Eng.Now())
			}
		})
	}
}

// TestDuplicateTagRegPanicsOnBothBackends pins down the satellite fix: the
// shared TagTable rejects duplicate registration, and both engines surface
// that identically — a silent last-wins would hand one layer's messages to
// another's handler.
func TestDuplicateTagRegPanicsOnBothBackends(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Stack) {
		const tag core.Tag = 12
		cb := func(core.Engine, core.Tag, []byte, int) {}
		s.Engines[0].TagReg(tag, cb, 64)
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate TagReg did not panic")
			}
		}()
		s.Engines[0].TagReg(tag, cb, 64)
	})
}

// TestAMLongerThanRegisteredFailsTheReceiver pins the meaning of TagReg's
// maxLen on both backends: it is a capacity the receiving engine enforces. A
// message within it is delivered; a longer one never reaches the callback and
// fails the receiving engine with core.ErrAMTooLong, naming tag, length,
// capacity and source. (The MPI backend used to die on a slice bound here and
// the LCI backend used to deliver.)
func TestAMLongerThanRegisteredFailsTheReceiver(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Stack) {
		const tag core.Tag = 13
		const maxLen = 48
		var delivered []int
		for r := 0; r < 2; r++ {
			s.Engines[r].TagReg(tag, func(_ core.Engine, _ core.Tag, data []byte, _ int) {
				delivered = append(delivered, len(data))
			}, maxLen)
		}
		var failures []error
		s.Engines[0].OnError(func(err error) { t.Errorf("the sender failed: %v", err) })
		s.Engines[1].OnError(func(err error) { failures = append(failures, err) })

		s.Engines[0].SendAM(tag, 1, make([]byte, maxLen))
		s.Eng.Run()
		if len(delivered) != 1 || delivered[0] != maxLen || len(failures) != 0 {
			t.Fatalf("a message of exactly maxLen: delivered %v, failures %v", delivered, failures)
		}

		s.Engines[0].SendAM(tag, 1, make([]byte, maxLen+1))
		s.Eng.Run()
		if len(delivered) != 1 {
			t.Fatalf("an over-long message reached the callback: delivered %v", delivered)
		}
		if len(failures) != 1 || !errors.Is(failures[0], core.ErrAMTooLong) || !errors.Is(s.Engines[1].Err(), core.ErrAMTooLong) {
			t.Fatalf("failures = %v, Err() = %v, want one core.ErrAMTooLong", failures, s.Engines[1].Err())
		}
		for _, want := range []string{"rank 1", "tag 13", "49-byte", "from 0", "registered for 48"} {
			if !strings.Contains(failures[0].Error(), want) {
				t.Errorf("error %q does not name %q", failures[0], want)
			}
		}
	})
}

// putWithCompletion puts size bytes from rank 0 into rank 1 of s with rcbData
// as the remote completion data, on a tag registered for maxLen bytes, and
// returns the completion data lengths rank 1's callback saw and the failures
// its engine reported.
func putWithCompletion(t *testing.T, s *Stack, size int64, rcbData []byte, maxLen int64) (delivered []int, failures []error) {
	t.Helper()
	const tag core.Tag = 21
	for r := 0; r < 2; r++ {
		s.Engines[r].TagReg(tag, func(_ core.Engine, _ core.Tag, data []byte, _ int) {
			delivered = append(delivered, len(data))
		}, maxLen)
	}
	s.Engines[0].OnError(func(err error) { t.Errorf("the origin failed: %v", err) })
	s.Engines[1].OnError(func(err error) { failures = append(failures, err) })
	lreg := s.Engines[0].MemReg(buf.Virtual(size))
	rreg := s.Engines[1].MemReg(buf.Virtual(size))
	s.Engines[0].Submit(0, func() {
		s.Engines[0].Put(core.PutArgs{LReg: lreg, RReg: rreg, Size: size, Remote: 1, RTag: tag, RCBData: rcbData})
	})
	s.Eng.Run()
	return delivered, failures
}

// TestPutCompletionLongerThanRegisteredFailsTheReceiver extends maxLen's
// meaning to a put's remote completion: completion data of exactly maxLen
// reaches RTag's callback, and longer data fails the receiving engine with
// core.ErrAMTooLong instead — on both backends, for a put small enough to
// ride inside LCI's handshake and for one that is not.
func TestPutCompletionLongerThanRegisteredFailsTheReceiver(t *testing.T) {
	const maxLen = 16
	for _, size := range []int64{64, 64 << 10} {
		t.Run(fmt.Sprintf("size=%d/fits", size), func(t *testing.T) {
			forEachBackend(t, func(t *testing.T, s *Stack) {
				delivered, failures := putWithCompletion(t, s, size, make([]byte, maxLen), maxLen)
				if len(delivered) != 1 || delivered[0] != maxLen || len(failures) != 0 {
					t.Fatalf("completion data of exactly maxLen: delivered %v, failures %v", delivered, failures)
				}
			})
		})
		t.Run(fmt.Sprintf("size=%d/too_long", size), func(t *testing.T) {
			forEachBackend(t, func(t *testing.T, s *Stack) {
				delivered, failures := putWithCompletion(t, s, size, make([]byte, maxLen+1), maxLen)
				if len(delivered) != 0 {
					t.Fatalf("over-long completion data reached the callback: delivered %v", delivered)
				}
				if len(failures) != 1 || !errors.Is(failures[0], core.ErrAMTooLong) || !errors.Is(s.Engines[1].Err(), core.ErrAMTooLong) {
					t.Fatalf("failures = %v, Err() = %v, want one core.ErrAMTooLong", failures, s.Engines[1].Err())
				}
				for _, want := range []string{"rank 1", "tag 21", "17-byte", "from 0", "registered for 16"} {
					if !strings.Contains(failures[0].Error(), want) {
						t.Errorf("error %q does not name %q", failures[0], want)
					}
				}
			})
		})
	}
}

// TestRelRequiresSerialDomain: the reliability layer keeps one set of record
// free lists per stack, so Build refuses it on a sharded domain.
func TestRelRequiresSerialDomain(t *testing.T) {
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "single-shard domain") {
			t.Fatalf("Rel on a sharded domain: panic %q does not name the single-shard requirement", msg)
		}
	}()
	o := DefaultOptions(LCI, 4)
	o.Shards = 2
	rc := rel.DefaultConfig()
	o.Rel = &rc
	Build(o)
}

func TestAMBurstAllDelivered(t *testing.T) {
	// More simultaneous AMs than the MPI backend has persistent receives
	// (5/tag): the overflow must queue and still be delivered.
	forEachBackend(t, func(t *testing.T, s *Stack) {
		const tag core.Tag = 11
		const n = 40
		seen := map[byte]bool{}
		for r := 0; r < 2; r++ {
			s.Engines[r].TagReg(tag, func(_ core.Engine, _ core.Tag, data []byte, src int) {
				seen[data[0]] = true
			}, 64)
		}
		for i := 0; i < n; i++ {
			s.Engines[0].SendAM(tag, 1, []byte{byte(i)})
		}
		s.Eng.Run()
		if len(seen) != n {
			t.Fatalf("delivered %d distinct AMs, want %d", len(seen), n)
		}
	})
}

func putOnce(t *testing.T, s *Stack, size int64) (localDone, remoteDone bool) {
	t.Helper()
	const doneTag core.Tag = 20
	src, dst := s.Engines[0], s.Engines[1]

	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	target := make([]byte, size)

	lreg := src.MemReg(buf.FromBytes(payload))
	rreg := dst.MemReg(buf.FromBytes(target))

	for r := 0; r < 2; r++ {
		r := r
		s.Engines[r].TagReg(doneTag, func(_ core.Engine, _ core.Tag, data []byte, from int) {
			if r != 1 || string(data) != "cbdata" || from != 0 {
				t.Errorf("remote completion at rank %d data %q from %d", r, data, from)
			}
			remoteDone = true
		}, 64)
	}

	src.Submit(0, func() {
		src.Put(core.PutArgs{
			LReg: lreg, RReg: rreg, Size: size, Remote: 1,
			LocalCB: func() { localDone = true },
			RTag:    doneTag, RCBData: []byte("cbdata"),
		})
	})
	s.Eng.Run()

	for i := range payload {
		if target[i] != payload[i] {
			t.Fatalf("payload mismatch at %d (size %d)", i, size)
		}
	}
	return localDone, remoteDone
}

func TestPutSmallAndLarge(t *testing.T) {
	for _, size := range []int64{1, 512, 4 << 10, 64 << 10, 1 << 20} {
		size := size
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			forEachBackend(t, func(t *testing.T, s *Stack) {
				localDone, remoteDone := putOnce(t, s, size)
				if !localDone || !remoteDone {
					t.Fatalf("local=%v remote=%v", localDone, remoteDone)
				}
				started, done, bytes := engineCount(s, "puts_started", 0), engineCount(s, "puts_done", 0), engineCount(s, "put_bytes", 0)
				if started != 1 || done != 1 || bytes != uint64(size) {
					t.Fatalf("origin puts started %d, done %d, %d bytes", started, done, bytes)
				}
			})
		})
	}
}

func TestPutWithDisplacements(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Stack) {
		const doneTag core.Tag = 21
		srcData := []byte{0, 0, 0, 1, 2, 3, 4, 0}
		dstData := make([]byte, 16)
		lreg := s.Engines[0].MemReg(buf.FromBytes(srcData))
		rreg := s.Engines[1].MemReg(buf.FromBytes(dstData))
		for r := 0; r < 2; r++ {
			s.Engines[r].TagReg(doneTag, func(core.Engine, core.Tag, []byte, int) {}, 16)
		}
		s.Engines[0].Submit(0, func() {
			s.Engines[0].Put(core.PutArgs{
				LReg: lreg, LDispl: 3, RReg: rreg, RDispl: 10, Size: 4,
				Remote: 1, RTag: doneTag,
			})
		})
		s.Eng.Run()
		want := []byte{1, 2, 3, 4}
		for i := range want {
			if dstData[10+i] != want[i] {
				t.Fatalf("dst = %v", dstData)
			}
		}
		for i := 0; i < 10; i++ {
			if dstData[i] != 0 {
				t.Fatalf("displacement leak: dst = %v", dstData)
			}
		}
	})
}

func TestManyConcurrentPutsOverflowTransferCap(t *testing.T) {
	// 100 concurrent puts exceed the MPI backend's 30-transfer array; the
	// deferral machinery must still complete them all, in both backends.
	forEachBackend(t, func(t *testing.T, s *Stack) {
		const doneTag core.Tag = 22
		const n = 100
		const size = 256 << 10
		remote := 0
		local := 0
		for r := 0; r < 2; r++ {
			s.Engines[r].TagReg(doneTag, func(core.Engine, core.Tag, []byte, int) { remote++ }, 16)
		}
		src, dst := s.Engines[0], s.Engines[1]
		var lregs, rregs []core.MemHandle
		for i := 0; i < n; i++ {
			lregs = append(lregs, src.MemReg(buf.Virtual(size)))
			rregs = append(rregs, dst.MemReg(buf.Virtual(size)))
		}
		src.Submit(0, func() {
			for i := 0; i < n; i++ {
				i := i
				src.Put(core.PutArgs{
					LReg: lregs[i], RReg: rregs[i], Size: size, Remote: 1,
					LocalCB: func() { local++ },
					RTag:    doneTag,
				})
			}
		})
		s.Eng.Run()
		if local != n || remote != n {
			t.Fatalf("local=%d remote=%d, want %d", local, remote, n)
		}
		if s.Backend == MPI && engineCount(s, "deferred", 0) == 0 {
			t.Error("MPI backend should have deferred sends beyond the 30-transfer cap")
		}
	})
}

func TestSendAMMTFromWorkers(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Stack) {
		const tag core.Tag = 23
		const workers = 8
		received := 0
		for r := 0; r < 2; r++ {
			s.Engines[r].TagReg(tag, func(core.Engine, core.Tag, []byte, int) { received++ }, 64)
		}
		returned := 0
		for i := 0; i < workers; i++ {
			w := sim.NewProc(s.Eng)
			s.Engines[0].SendAMMT(w, tag, 1, []byte{byte(i)}, func() { returned++ })
		}
		s.Eng.Run()
		if received != workers || returned != workers {
			t.Fatalf("received=%d returned=%d, want %d", received, returned, workers)
		}
	})
}

func TestCommThreadCallbackBlocksMPIProgressMoreThanLCI(t *testing.T) {
	// The structural claim of the paper: a long AM callback on the
	// communication thread delays an independent put far more with the MPI
	// backend (progress shares the thread) than with LCI (dedicated
	// progress thread).
	// A 200µs callback occupies the TARGET's communication thread when the
	// put handshake arrives. With MPI, rendezvous matching happens inside
	// Testsome on that same thread, so the data cannot land until the
	// callback finishes; with LCI, the progress thread posts the matching
	// receive and the bytes arrive on schedule. We observe the actual
	// arrival of the last payload byte.
	const size = 1 << 20
	arrival := func(b Backend) sim.Duration {
		o := DefaultOptions(b, 2)
		o.Fabric.Jitter = 0
		s := Build(o)
		const slowTag, doneTag core.Tag = 30, 31
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = 0xAB
		}
		target := make([]byte, size)
		for r := 0; r < 2; r++ {
			e := s.Engines[r]
			e.TagReg(slowTag, func(eng core.Engine, _ core.Tag, _ []byte, _ int) {
				// Unpacking a large aggregated ACTIVATE (§4.3 example).
				eng.Submit(200*sim.Microsecond, func() {})
			}, 64)
			e.TagReg(doneTag, func(core.Engine, core.Tag, []byte, int) {}, 64)
		}
		src, dst := s.Engines[0], s.Engines[1]
		lreg := src.MemReg(buf.FromBytes(payload))
		rreg := dst.MemReg(buf.FromBytes(target))
		// Slow AM reaches rank 1 just before the put's handshake.
		src.SendAM(slowTag, 1, []byte{1})
		src.Submit(0, func() {
			src.Put(core.PutArgs{LReg: lreg, RReg: rreg, Size: size, Remote: 1, RTag: doneTag})
		})
		var landedAt sim.Time
		var watch func()
		watch = func() {
			if target[size-1] == 0xAB {
				landedAt = s.Eng.Now()
				return
			}
			s.Eng.After(sim.Microsecond, watch)
		}
		s.Eng.After(0, watch)
		s.Eng.Run()
		if landedAt == 0 {
			panic("put data never landed")
		}
		return sim.Duration(landedAt)
	}
	mpiLat := arrival(MPI)
	lciLat := arrival(LCI)
	if lciLat >= mpiLat {
		t.Fatalf("LCI arrival %v not before MPI arrival %v under callback load", lciLat, mpiLat)
	}
	if mpiLat < 150*sim.Microsecond {
		t.Fatalf("MPI arrival %v should absorb most of the 200µs callback", mpiLat)
	}
	if lciLat > 120*sim.Microsecond {
		t.Fatalf("LCI arrival %v should dodge the 200µs callback", lciLat)
	}
}

func TestStacksAreDeterministic(t *testing.T) {
	run := func() (sim.Time, *metrics.Registry) {
		o := DefaultOptions(LCI, 2)
		s := Build(o)
		const tag core.Tag = 40
		for r := 0; r < 2; r++ {
			s.Engines[r].TagReg(tag, func(core.Engine, core.Tag, []byte, int) {}, 64)
		}
		for i := 0; i < 50; i++ {
			s.Engines[0].SendAM(tag, 1, []byte{byte(i)})
		}
		return s.Eng.Run(), s.Metrics
	}
	endA, regA := run()
	endB, regB := run()
	if endA != endB {
		t.Fatalf("two identical runs ended at %v and %v", endA, endB)
	}
	if d := metrics.Diff(regA, regB); d != "" {
		t.Fatalf("two identical runs diverged: %s", d)
	}
}

func TestBackendString(t *testing.T) {
	if MPI.String() != "Open MPI" || LCI.String() != "LCI" {
		t.Fatal("backend names must match the paper's figure legends")
	}
	if Backend(9).String() == "" {
		t.Fatal("unknown backend must still format")
	}
}
