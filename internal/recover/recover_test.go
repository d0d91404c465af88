package recover_test

import (
	"bytes"
	"testing"

	"amtlci/internal/core/stack"
	recov "amtlci/internal/recover"
)

// buildPair assembles a 2-rank stack with a checkpoint manager on each rank.
func buildPair(t *testing.T, b stack.Backend) (*stack.Stack, []*recov.Manager) {
	t.Helper()
	o := stack.DefaultOptions(b, 2)
	o.Fabric.Jitter = 0
	s := stack.Build(o)
	ms := make([]*recov.Manager, 2)
	for r := 0; r < 2; r++ {
		ms[r] = recov.NewManager(s.Engines[r], s.Metrics)
	}
	return s, ms
}

// ckpt reads rank's recover/ckpt_<name> counter from the stack's registry.
func ckpt(s *stack.Stack, name string, rank int) uint64 {
	return s.Metrics.Value("recover", "ckpt_"+name, rank)
}

func TestBuddyRing(t *testing.T) {
	s, ms := buildPair(t, stack.LCI)
	_ = s
	if ms[0].Buddy() != 1 || ms[1].Buddy() != 0 {
		t.Fatalf("buddies = %d, %d; want the ring 1, 0", ms[0].Buddy(), ms[1].Buddy())
	}
	ms[0].SetBuddy(0)
	if ms[0].Buddy() != 0 {
		t.Fatal("SetBuddy did not take")
	}
}

// TestCheckpointReachesBuddy is the protocol's core property on both
// backends: a checkpoint taken at one rank becomes visible at its buddy,
// with the data intact and owned by the buddy (not aliased to the wire).
func TestCheckpointReachesBuddy(t *testing.T) {
	for _, b := range stack.Backends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			s, ms := buildPair(t, b)
			k := recov.Key{Class: 3, Index: 41}
			tile := bytes.Repeat([]byte{0xC5}, 2048)
			s.Engines[0].Submit(0, func() {
				ms[0].Checkpoint(k, []recov.FlowCkpt{
					{Flow: 0, Size: int64(len(tile)), Data: tile},
					{Flow: 1, Size: 0, Data: nil}, // virtual control flow
				})
			})
			s.Eng.Run()

			if !ms[0].Has(k) {
				t.Fatal("checkpoint not recorded locally at the owner")
			}
			if !ms[1].Has(k) {
				t.Fatal("checkpoint did not reach the buddy")
			}
			flows, ok := ms[1].Lookup(k)
			if !ok || len(flows) != 2 {
				t.Fatalf("buddy lookup = %v, %v; want both flows", flows, ok)
			}
			if !bytes.Equal(flows[0].Data, tile) || flows[0].Size != int64(len(tile)) {
				t.Fatalf("buddy flow 0 corrupted: size %d", flows[0].Size)
			}
			if flows[1].Size != 0 || flows[1].Data != nil {
				t.Fatalf("virtual flow not preserved: %+v", flows[1])
			}
			if ckpt(s, "sent", 0) != 1 || ckpt(s, "bytes", 0) == 0 || ckpt(s, "stored", 1) != 1 || ckpt(s, "bad", 1) != 0 {
				t.Fatalf("owner sent %d (%d B), buddy stored %d (%d bad)",
					ckpt(s, "sent", 0), ckpt(s, "bytes", 0), ckpt(s, "stored", 1), ckpt(s, "bad", 1))
			}
		})
	}
}

// TestSelfBuddyStoresLocally covers the degenerate single-rank job: with
// buddy == self nothing goes on the wire, but Lookup still works.
func TestSelfBuddyStoresLocally(t *testing.T) {
	o := stack.DefaultOptions(stack.LCI, 1)
	o.Fabric.Jitter = 0
	s := stack.Build(o)
	m := recov.NewManager(s.Engines[0], s.Metrics)
	if m.Buddy() != 0 {
		t.Fatalf("single-rank buddy = %d, want self", m.Buddy())
	}
	k := recov.Key{Class: 1, Index: 7}
	s.Engines[0].Submit(0, func() {
		m.Checkpoint(k, []recov.FlowCkpt{{Flow: 0, Size: 4, Data: []byte{1, 2, 3, 4}}})
	})
	s.Eng.Run()
	if !m.Has(k) {
		t.Fatal("self-buddy checkpoint lost")
	}
	if n := ckpt(s, "sent", 0); n != 0 {
		t.Fatalf("self-buddy shipped %d checkpoints onto the wire", n)
	}
}

// TestCheckpointCopiesCallerBuffer pins the aliasing contract: Checkpoint
// snapshots the tile, so the caller may keep mutating it afterwards.
func TestCheckpointCopiesCallerBuffer(t *testing.T) {
	s, ms := buildPair(t, stack.MPI)
	k := recov.Key{Class: 0, Index: 0}
	tile := []byte{10, 20, 30, 40}
	s.Engines[0].Submit(0, func() {
		ms[0].Checkpoint(k, []recov.FlowCkpt{{Flow: 0, Size: 4, Data: tile}})
		tile[0] = 99 // mutate after the call
	})
	s.Eng.Run()
	for who, m := range ms {
		flows, ok := m.Lookup(k)
		if !ok {
			t.Fatalf("rank %d missing checkpoint", who)
		}
		if flows[0].Data[0] != 10 {
			t.Fatalf("rank %d checkpoint aliases the caller's tile", who)
		}
	}
}

func TestCkptStatsStartZero(t *testing.T) {
	s, _ := buildPair(t, stack.LCI)
	for _, name := range []string{"sent", "bytes", "stored", "bad", "rereplicated", "orphaned"} {
		if n := ckpt(s, name, 0); n != 0 {
			t.Fatalf("fresh manager ckpt_%s = %d", name, n)
		}
	}
}

// buildRing assembles an n-rank stack with a checkpoint manager per rank.
func buildRing(t *testing.T, b stack.Backend, n int) (*stack.Stack, []*recov.Manager) {
	t.Helper()
	o := stack.DefaultOptions(b, n)
	o.Fabric.Jitter = 0
	s := stack.Build(o)
	ms := make([]*recov.Manager, n)
	for r := 0; r < n; r++ {
		ms[r] = recov.NewManager(s.Engines[r], s.Metrics)
	}
	return s, ms
}

// TestCheckpointSkipsDeadBuddy is the regression test for the metrics leak:
// before MarkDead existed, a rank kept shipping checkpoint frames to a
// crashed buddy until the restart called SetBuddy, and ckpt_sent/ckpt_bytes
// counted frames the NIC was dropping. The counters must freeze at the
// moment of the death verdict.
func TestCheckpointSkipsDeadBuddy(t *testing.T) {
	s, ms := buildPair(t, stack.LCI)
	k1 := recov.Key{Class: 0, Index: 1}
	k2 := recov.Key{Class: 0, Index: 2}
	tile := bytes.Repeat([]byte{7}, 512)
	flows := []recov.FlowCkpt{{Flow: 0, Size: int64(len(tile)), Data: tile}}

	s.Engines[0].Submit(0, func() { ms[0].Checkpoint(k1, flows) })
	s.Eng.Run()
	sent, sentBytes := ckpt(s, "sent", 0), ckpt(s, "bytes", 0)
	if sent != 1 || sentBytes == 0 {
		t.Fatalf("live-buddy checkpoint not booked: %d sent, %d B", sent, sentBytes)
	}

	// The failure detector declares the buddy dead; the next checkpoint must
	// stay local and leave the wire books untouched.
	ms[0].MarkDead(1)
	s.Engines[0].Submit(0, func() { ms[0].Checkpoint(k2, flows) })
	s.Eng.Run()
	if ckpt(s, "sent", 0) != sent || ckpt(s, "bytes", 0) != sentBytes {
		t.Fatalf("checkpoint to dead buddy counted: %d sent (%d B) after %d (%d B)",
			ckpt(s, "sent", 0), ckpt(s, "bytes", 0), sent, sentBytes)
	}
	if !ms[0].Has(k2) {
		t.Fatal("local copy lost when the buddy is dead")
	}
	if !ms[0].PeerDead(1) || ms[0].PeerDead(0) {
		t.Fatal("PeerDead view wrong")
	}

	// CheckpointFor skips dead destinations the same way.
	s.Engines[0].Submit(0, func() {
		ms[0].CheckpointFor(recov.Key{Class: 0, Index: 3}, flows, 1, 1)
	})
	s.Eng.Run()
	if n := ckpt(s, "sent", 0); n != sent {
		t.Fatalf("CheckpointFor to dead destination counted: %d sent, want %d", n, sent)
	}
}

// TestAdoptAndRereplicate walks the repair protocol on a 4-rank ring: rank 1
// checkpoints to its buddy 2, rank 1 "dies", rank 2 adopts the orphans and
// re-replicates them (now owner-stamped as rank 2's) to its buddy 3.
func TestAdoptAndRereplicate(t *testing.T) {
	for _, b := range stack.Backends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			s, ms := buildRing(t, b, 4)
			k := recov.Key{Class: 2, Index: 17}
			tile := bytes.Repeat([]byte{0xAB}, 256)
			flows := []recov.FlowCkpt{{Flow: 0, Size: int64(len(tile)), Data: tile}}

			s.Engines[1].Submit(0, func() { ms[1].Checkpoint(k, flows) })
			s.Eng.Run()
			if !ms[2].Has(k) {
				t.Fatal("checkpoint did not reach the buddy")
			}

			// Rank 1 dies; rank 2 inherits its work.
			for _, m := range ms {
				m.MarkDead(1)
			}
			var adopted []recov.Key
			s.Engines[2].Submit(0, func() {
				adopted = ms[2].AdoptOrphans(1)
				if n := ms[2].Rereplicate(adopted); n != len(adopted) {
					t.Errorf("re-replicated %d of %d adopted checkpoints", n, len(adopted))
				}
			})
			s.Eng.Run()

			if len(adopted) != 1 || adopted[0] != k {
				t.Fatalf("adopted %v, want [%v]", adopted, k)
			}
			if o, r := ckpt(s, "orphaned", 2), ckpt(s, "rereplicated", 2); o != 1 || r != 1 {
				t.Fatalf("rank 2 orphaned %d, rereplicated %d, want 1 + 1", o, r)
			}
			// The copy now lives at rank 3, owned by rank 2: if rank 2 dies
			// next, rank 3 can adopt it in turn (the cascade case).
			if !ms[3].Has(k) {
				t.Fatal("re-replicated checkpoint did not reach the new buddy")
			}
			if got, ok := ms[3].Lookup(k); !ok || !bytes.Equal(got[0].Data, tile) {
				t.Fatal("re-replicated payload corrupted")
			}
			for _, m := range ms {
				m.MarkDead(2)
			}
			var chained []recov.Key
			s.Engines[3].Submit(0, func() { chained = ms[3].AdoptOrphans(2) })
			s.Eng.Run()
			if len(chained) != 1 || chained[0] != k {
				t.Fatalf("chained adoption %v, want [%v]", chained, k)
			}
		})
	}
}

// TestCheckpointForCarriesOwner pins the v2 provenance: a stolen completion
// shipped by a thief lands at the owner's buddy tagged with the OWNER, not
// the thief — so the buddy re-homes it when the owner (not the thief) dies.
func TestCheckpointForCarriesOwner(t *testing.T) {
	s, ms := buildRing(t, stack.LCI, 4)
	k := recov.Key{Class: 5, Index: 8}
	flows := []recov.FlowCkpt{{Flow: 0, Size: 2, Data: []byte{1, 2}}}

	// Rank 3 (the thief) executed a task owned by rank 1; buddy of 1 is 2.
	s.Engines[3].Submit(0, func() { ms[3].CheckpointFor(k, flows, 1, 1, 2) })
	s.Eng.Run()
	if !ms[1].Has(k) || !ms[2].Has(k) {
		t.Fatal("stolen completion missing at owner or owner's buddy")
	}

	// The thief dying must orphan nothing at rank 2...
	s.Engines[2].Submit(0, func() {
		if got := ms[2].AdoptOrphans(3); len(got) != 0 {
			t.Errorf("thief death orphaned %v at the owner's buddy", got)
		}
		// ...while the owner dying orphans exactly the stolen completion.
		if got := ms[2].AdoptOrphans(1); len(got) != 1 || got[0] != k {
			t.Errorf("owner death adoption = %v, want [%v]", got, k)
		}
	})
	s.Eng.Run()

	// At the owner itself the completion joined the LOCAL set (it is the
	// owner's own task), so a buddy-death repair re-replicates it.
	s.Engines[1].Submit(0, func() {
		ms[1].MarkDead(2)
		ms[1].SetBuddy(3)
		if n := ms[1].RereplicateAll(); n != 1 {
			t.Errorf("owner re-replicated %d checkpoints, want 1", n)
		}
	})
	s.Eng.Run()
	if !ms[3].Has(k) {
		t.Fatal("owner's repair did not reach the new buddy")
	}
}

func TestMetricsRegistered(t *testing.T) {
	o := stack.DefaultOptions(stack.LCI, 2)
	o.Fabric.Jitter = 0
	s := stack.Build(o)
	reg := s.Metrics
	ms := []*recov.Manager{
		recov.NewManager(s.Engines[0], reg),
		recov.NewManager(s.Engines[1], reg),
	}
	s.Engines[0].Submit(0, func() {
		ms[0].Checkpoint(recov.Key{Class: 2, Index: 5},
			[]recov.FlowCkpt{{Flow: 0, Size: 8, Data: make([]byte, 8)}})
	})
	s.Eng.Run()
	if got := reg.Total("recover", "ckpt_sent"); got != 1 {
		t.Fatalf("registry total ckpt_sent = %v, want 1", got)
	}
	if got := reg.Total("recover", "ckpt_stored"); got != 1 {
		t.Fatalf("registry total ckpt_stored = %v, want 1", got)
	}
}
