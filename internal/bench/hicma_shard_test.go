package bench

import (
	"fmt"
	"strings"
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/fabric"
	"amtlci/internal/metrics"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
)

// onShards is hicmaRun's mutate hook that simulates a run on n shards.
func onShards(n int) func(*stack.Options, *parsec.Config) {
	return func(so *stack.Options, _ *parsec.Config) { so.Shards = n }
}

// requireShardedMatchesSerial runs o serially and on every shard count and
// fails t unless each sharded run reproduces the serial one: its result
// (makespan, latency means, task counts) and its whole registry, so every
// counter of every layer.
func requireShardedMatchesSerial(t *testing.T, o HiCMAOpts, shardCounts []int) {
	t.Helper()
	serial, serialReg := hicmaRun(o, 0, nil)
	for _, shards := range shardCounts {
		got, reg := hicmaRun(o, 0, onShards(shards))
		if got != serial {
			t.Errorf("shards=%d diverges from serial:\nserial:  %+v\nsharded: %+v",
				shards, serial, got)
		}
		if d := metrics.Diff(serialReg, reg); d != "" {
			t.Errorf("shards=%d registry diverges from serial: %s", shards, d)
		}
	}
}

// TestHiCMAShardedMatchesSerial is the stack-level differential proof: the
// full deployment — fabric, backend runtime, communication engines, parsec —
// simulated on 2, 3, 4, and 8 shards must reproduce the serial run bit for
// bit (result and registry), for both backends. Per-rank event streams are
// identical by the conservative-window argument (DESIGN §3); this pins
// that the whole stack actually honors the shard-safety rules the argument
// depends on.
func TestHiCMAShardedMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second differential")
	}
	for _, b := range stack.Backends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			o := DefaultHiCMAOpts(b, 1200, 16)
			o.N = 19200
			requireShardedMatchesSerial(t, o, []int{2, 3, 4, 8})
		})
	}
}

// TestHiCMAShardedStealMatchesSerial repeats the differential with
// inter-rank work stealing on: the steal protocol (probes, grants, task +
// tile transfer) is the most timing-entangled cross-rank machinery in the
// runtime, so it gets its own sharded × serial matrix under -race.
func TestHiCMAShardedStealMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second differential")
	}
	for _, b := range stack.Backends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			o := DefaultHiCMAOpts(b, 1200, 8)
			o.N = 9600
			o.Steal = true
			requireShardedMatchesSerial(t, o, []int{2, 4})
		})
	}
}

// TestShardedCrashConfigRejected pins the serial-only gate for crash
// scripts: scheduling a NodeCrash on a sharded domain must fail loudly at
// build time, not corrupt a run.
func TestShardedCrashConfigRejected(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Build accepted a crash schedule on a sharded domain")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "single-shard domain") {
			t.Fatalf("panic %q does not name the single-shard requirement", msg)
		}
	}()
	o := stack.DefaultOptions(stack.LCI, 8)
	o.Shards = 4
	o.Faults = &fabric.FaultConfig{
		Crashes: []fabric.NodeCrash{{Rank: 1, At: sim.Time(50 * sim.Microsecond)}},
	}
	stack.Build(o)
}
