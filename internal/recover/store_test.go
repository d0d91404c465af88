package recover

import (
	"bytes"
	"runtime"
	"testing"

	"amtlci/internal/core/stack"
)

// managers builds an n-rank stack with a checkpoint manager per rank.
func managers(t *testing.T, n int) (*stack.Stack, []*Manager) {
	t.Helper()
	o := stack.DefaultOptions(stack.LCI, n)
	o.Fabric.Jitter = 0
	s := stack.Build(o)
	ms := make([]*Manager, n)
	for r := range ms {
		ms[r] = NewManager(s.Engines[r], s.Metrics)
	}
	return s, ms
}

// TestStoredCheckpointOwnsItsBytes pins what the store keeps: a copy of its
// own. Neither the AM payload a frame arrived in (v1 and v2), nor the
// caller's tile after Checkpoint or CheckpointFor, may be what Lookup
// returns: scribbling over them afterwards must leave the checkpoint intact.
func TestStoredCheckpointOwnsItsBytes(t *testing.T) {
	tile := []byte{10, 20, 30, 40, 50}
	want := bytes.Clone(tile)
	check := func(t *testing.T, m *Manager, k Key) {
		t.Helper()
		flows, ok := m.Lookup(k)
		if !ok || len(flows) != 1 || flows[0].Size != int64(len(want)) || !bytes.Equal(flows[0].Data, want) {
			t.Fatalf("rank %d Lookup(%v) = %+v, %v; want the original %v", m.Rank(), k, flows, ok, want)
		}
	}
	for _, owner := range []int{-1, 0} {
		t.Run(map[int]string{-1: "onCkpt v1", 0: "onCkpt v2"}[owner], func(t *testing.T) {
			_, ms := managers(t, 2)
			k := Key{Class: 1, Index: 9}
			payload := appendFrame(nil, k, []FlowCkpt{{Flow: 0, Size: int64(len(tile)), Data: tile}}, owner)
			ms[1].onCkpt(nil, TagCkpt, payload, 0)
			for i := range payload {
				payload[i] = 0xEE
			}
			check(t, ms[1], k)
		})
	}
	t.Run("Checkpoint", func(t *testing.T) {
		s, ms := managers(t, 2)
		k := Key{Class: 2, Index: 3}
		data := bytes.Clone(tile)
		s.Engines[0].Submit(0, func() {
			ms[0].Checkpoint(k, []FlowCkpt{{Flow: 0, Size: int64(len(data)), Data: data}})
			clear(data)
		})
		s.Eng.Run()
		check(t, ms[0], k)
		check(t, ms[1], k)
	})
	t.Run("CheckpointFor", func(t *testing.T) {
		s, ms := managers(t, 3)
		k := Key{Class: 4, Index: 5}
		data := bytes.Clone(tile)
		// Rank 0 ran rank 1's task: one copy stays here on rank 1's behalf,
		// one ships to rank 2.
		s.Engines[0].Submit(0, func() {
			ms[0].CheckpointFor(k, []FlowCkpt{{Flow: 0, Size: int64(len(data)), Data: data}}, 1, 0, 2)
			clear(data)
		})
		s.Eng.Run()
		check(t, ms[0], k)
		check(t, ms[2], k)
	})
}

// allocsPerCall is the marginal heap allocations of one more call of the
// loop run builds: a long run minus a short one, which cancels everything
// paid once (the stack, the managers, the first growth of each scratch).
func allocsPerCall(short, long int, run func(n int)) float64 {
	count := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(n)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	return float64(count(long)-count(short)) / float64(long-short)
}

// TestCheckpointAllocs pins the store's steady state at one allocation per
// checkpoint, the copy of its payload, both where it is taken (Checkpoint,
// on a single-rank job so no frame ships) and where it arrives (onCkpt). The
// frames, the decoded flow lists and Lookup's result are reused scratch. The
// keys cycle over a set both runs fill, so the maps' growth is paid once.
func TestCheckpointAllocs(t *testing.T) {
	tile := bytes.Repeat([]byte{7}, 64)
	flows := []FlowCkpt{{Flow: 0, Size: int64(len(tile)), Data: tile}}
	checkpoint := allocsPerCall(1000, 5000, func(n int) {
		_, ms := managers(t, 1)
		for i := 0; i < n; i++ {
			ms[0].Checkpoint(Key{Index: int64(i % 512)}, flows)
		}
	})
	var frame []byte
	arrival := allocsPerCall(1000, 5000, func(n int) {
		_, ms := managers(t, 2)
		for i := 0; i < n; i++ {
			k := Key{Index: int64(i % 512)}
			frame = appendFrame(frame[:0], k, flows, -1)
			ms[1].onCkpt(nil, TagCkpt, frame, 0)
			ms[1].Lookup(k)
		}
	})
	t.Logf("Checkpoint %.3f, onCkpt %.3f allocs/call", checkpoint, arrival)
	if checkpoint > 1.01 || arrival > 1.01 {
		t.Fatalf("Checkpoint %.3f, onCkpt %.3f allocs/call; want <= 1 each (the payload copy)", checkpoint, arrival)
	}
}
