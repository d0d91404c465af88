package rel

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"amtlci/internal/fabric"
	"amtlci/internal/sim"
)

// hbStack builds a stack with the failure detector armed.
func hbStack(t *testing.T, ranks int, fc *fabric.FaultConfig) (*sim.Engine, *fabric.Fabric, *Stack) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := fabric.DefaultConfig()
	cfg.Jitter = 0
	fab, err := fabric.New(eng, ranks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fc != nil {
		if err := fab.InstallFaults(*fc); err != nil {
			t.Fatal(err)
		}
	}
	rc := DefaultConfig()
	rc.EnableHeartbeats()
	s, err := New(fab, rc)
	if err != nil {
		t.Fatal(err)
	}
	return eng, fab, s
}

func TestHeartbeatConfigValidate(t *testing.T) {
	good := DefaultConfig()
	good.EnableHeartbeats()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.HeartbeatPeriod = -1 },
		func(c *Config) { c.LeaseTimeout = -1 },
		func(c *Config) { c.HeartbeatPeriod = sim.Millisecond }, // period without lease
		func(c *Config) { c.LeaseTimeout = sim.Millisecond },    // lease without period
		func(c *Config) {
			c.HeartbeatPeriod = sim.Millisecond
			c.LeaseTimeout = sim.Millisecond // below two periods
		},
	}
	for i, mod := range bads {
		c := DefaultConfig()
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad heartbeat config %d accepted", i)
		}
	}
}

func TestHeartbeatCodecRoundTrip(t *testing.T) {
	in := Heartbeat{From: 13, Seq: 1<<40 + 7, Sent: 123456789}
	b := EncodeHeartbeat(in)
	if len(b) != HeartbeatBytes {
		t.Fatalf("encoded %d bytes, want %d", len(b), HeartbeatBytes)
	}
	out, err := DecodeHeartbeat(b)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}

	for name, corrupt := range map[string]func([]byte) []byte{
		"short":        func(b []byte) []byte { return b[:len(b)-1] },
		"long":         func(b []byte) []byte { return append(b, 0) },
		"bad magic":    func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"bad version":  func(b []byte) []byte { b[2] = 99; return b },
		"negative src": func(b []byte) []byte { b[6] |= 0x80; return b },
	} {
		mut := corrupt(bytes.Clone(b))
		if _, err := DecodeHeartbeat(mut); err == nil {
			t.Errorf("%s: corrupted beacon accepted", name)
		}
	}
}

// TestHeartbeatDetectsCrashedPeer is the detector's core property: after a
// whole-rank crash, every survivor independently converges on the same
// PeerDead verdict within a bounded window, and the dead rank itself stays
// silent (its endpoint froze).
func TestHeartbeatDetectsCrashedPeer(t *testing.T) {
	const ranks, dead = 4, 2
	crashAt := sim.Time(0).Add(sim.Millisecond)
	eng, _, s := hbStack(t, ranks, &fabric.FaultConfig{
		Crashes: []fabric.NodeCrash{{Rank: dead, At: crashAt}},
	})
	type verdict struct {
		peer int
		err  error
		at   sim.Time
	}
	verdicts := make(map[int][]verdict)
	for r := 0; r < ranks; r++ {
		r := r
		s.SetHandler(r, func(m *fabric.Message) {})
		s.SetErrHandler(r, func(peer int, err error) {
			verdicts[r] = append(verdicts[r], verdict{peer, err, eng.Now()})
			if len(verdicts) == ranks-1 {
				s.StopHeartbeats()
			}
		})
	}
	eng.Run()

	if got := len(verdicts); got != ranks-1 {
		t.Fatalf("%d ranks produced verdicts, want the %d survivors (map %v)", got, ranks-1, verdicts)
	}
	bound := crashAt.Add(s.cfg.LeaseTimeout + 2*s.cfg.HeartbeatPeriod)
	for r := 0; r < ranks; r++ {
		vs := verdicts[r]
		if r == dead {
			if len(vs) != 0 {
				t.Fatalf("the crashed rank produced verdicts: %v", vs)
			}
			continue
		}
		if len(vs) != 1 {
			t.Fatalf("rank %d produced %d verdicts, want exactly 1: %v", r, len(vs), vs)
		}
		v := vs[0]
		var pd *PeerDead
		if v.peer != dead || !errors.As(v.err, &pd) || pd.DeadPeer() != dead || pd.From != r {
			t.Fatalf("rank %d verdict = peer %d err %v, want PeerDead for rank %d", r, v.peer, v.err, dead)
		}
		if v.at > bound {
			t.Fatalf("rank %d converged at %v, after the bound %v", r, v.at, bound)
		}
	}
	if d, hb := s.Metrics().Total("rel", "peer_dead"), s.Metrics().Total("rel", "heartbeats_sent"); d != uint64(ranks-1) || hb == 0 {
		t.Fatalf("%d peer deaths and %d beacons, want %d deaths and some beacons", d, hb, ranks-1)
	}
}

// TestHeartbeatPiggybacksOnTraffic pins the zero-overhead property: links
// busy with protocol traffic (data one way, ACKs the other) emit no explicit
// beacons at all.
func TestHeartbeatPiggybacksOnTraffic(t *testing.T) {
	eng, _, s := hbStack(t, 2, nil)
	for r := 0; r < 2; r++ {
		s.SetHandler(r, func(m *fabric.Message) {})
	}
	// One small message every 100us — under the 250us beacon period — for
	// the whole run.
	end := sim.Time(0).Add(3 * sim.Millisecond)
	var pump func()
	pump = func() {
		if eng.Now() > end {
			s.StopHeartbeats()
			return
		}
		s.Send(&fabric.Message{Src: 0, Dst: 1, Size: 64})
		eng.After(100*sim.Microsecond, pump)
	}
	pump()
	eng.Run()
	if n := s.Metrics().Total("rel", "heartbeats_sent"); n != 0 {
		t.Fatalf("busy link emitted %d explicit beacons, want 0 (traffic is the heartbeat)", n)
	}
	if d, u := s.Metrics().Total("rel", "peer_dead"), s.Metrics().Total("rel", "unreachable"); d != 0 || u != 0 {
		t.Fatalf("healthy link produced failure verdicts: %d peer deaths, %d unreachable", d, u)
	}
}

// TestHeartbeatKeepsQuietLinkAlive is the complement: a link with no
// application traffic at all stays alive on explicit beacons alone.
func TestHeartbeatKeepsQuietLinkAlive(t *testing.T) {
	eng, _, s := hbStack(t, 2, nil)
	for r := 0; r < 2; r++ {
		s.SetHandler(r, func(m *fabric.Message) {})
	}
	eng.At(sim.Time(0).Add(10*sim.Millisecond), s.StopHeartbeats)
	eng.Run()
	if n := s.Metrics().Total("rel", "peer_dead"); n != 0 {
		t.Fatalf("idle but healthy link declared %d peers dead", n)
	}
	if tx, rx := s.Metrics().Total("rel", "heartbeats_sent"), s.Metrics().Total("rel", "heartbeats_received"); tx == 0 || rx == 0 {
		t.Fatalf("%d beacons sent, %d received, want beacons flowing both ways", tx, rx)
	}
}

// TestPeerFailureNotifiedOnce is the dedupe regression: a burst of sends
// into a severed link must surface exactly one PeerUnreachable, no matter
// how many frames time out.
func TestPeerFailureNotifiedOnce(t *testing.T) {
	eng, _, s := pairStack(t, 2, &fabric.FaultConfig{
		Links: []fabric.LinkFault{{Src: 0, Dst: 1, Sever: true}},
	})
	s.SetHandler(0, func(m *fabric.Message) {})
	s.SetHandler(1, func(m *fabric.Message) {})
	var calls []error
	s.SetErrHandler(0, func(peer int, err error) {
		if peer != 1 {
			t.Errorf("notified about peer %d, want 1", peer)
		}
		calls = append(calls, err)
	})
	for i := 0; i < 16; i++ {
		s.Send(&fabric.Message{Src: 0, Dst: 1, Size: 256})
	}
	eng.Run()
	if len(calls) != 1 {
		t.Fatalf("error callback fired %d times for one dead peer, want exactly 1", len(calls))
	}
	var pu *PeerUnreachable
	if !errors.As(calls[0], &pu) {
		t.Fatalf("notification %v is not PeerUnreachable", calls[0])
	}
	if n := s.Metrics().Total("rel", "unreachable"); n != 1 {
		t.Fatalf("unreachable = %d, want exactly 1", n)
	}
}

// TestCrashNotifiedOncePerEndpoint covers the race between the two
// detectors: with traffic in flight toward a rank that crashes, both the
// retry budget and the lease may condemn it — the upper layer must still
// hear about the death exactly once.
func TestCrashNotifiedOncePerEndpoint(t *testing.T) {
	crashAt := sim.Time(0).Add(500 * sim.Microsecond)
	eng, _, s := hbStack(t, 2, &fabric.FaultConfig{
		Crashes: []fabric.NodeCrash{{Rank: 1, At: crashAt}},
	})
	s.SetHandler(0, func(m *fabric.Message) {})
	s.SetHandler(1, func(m *fabric.Message) {})
	calls := 0
	s.SetErrHandler(0, func(peer int, err error) {
		calls++
		s.StopHeartbeats()
	})
	s.SetErrHandler(1, func(peer int, err error) {
		t.Errorf("the crashed rank reported a failure: peer %d, %v", peer, err)
	})
	// Keep traffic in flight across the crash instant so retransmit timers
	// are armed when the lease expires.
	var pump func()
	pump = func() {
		if eng.Now() > crashAt.Add(sim.Millisecond) {
			return
		}
		s.Send(&fabric.Message{Src: 0, Dst: 1, Size: 64})
		eng.After(50*sim.Microsecond, pump)
	}
	pump()
	eng.Run()
	if calls != 1 {
		t.Fatalf("error callback fired %d times, want exactly 1", calls)
	}
}

// TestNotifyPeerFailureConcurrentIdempotent pins the delivery contract under
// concurrent detector firings: however many detectors declare the same peer
// dead at once (a lease expiry racing a retry exhaustion), the upper layer
// hears exactly one verdict per endpoint-pair. The goroutines here model the
// sharded-domain worst case; run with -race.
func TestNotifyPeerFailureConcurrentIdempotent(t *testing.T) {
	_, _, s := hbStack(t, 3, nil)
	ep := s.eps[0]
	var calls, forPeer1 atomic.Int64
	s.SetErrHandler(0, func(peer int, err error) {
		calls.Add(1)
		if peer == 1 {
			forPeer1.Add(1)
		}
	})

	const firings = 64
	var wg sync.WaitGroup
	for i := 0; i < firings; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				ep.notifyPeerFailure(1, &PeerDead{From: 0, To: 1, Lease: s.cfg.LeaseTimeout})
			} else {
				ep.notifyPeerFailure(1, &PeerUnreachable{From: 0, To: 1, Attempts: 1})
			}
		}()
	}
	wg.Wait()
	if got := forPeer1.Load(); got != 1 {
		t.Fatalf("concurrent firings for one peer delivered %d verdicts, want exactly 1", got)
	}
	// The claim is per endpoint-PAIR: a verdict about a different peer still
	// gets through afterwards.
	ep.notifyPeerFailure(2, &PeerDead{From: 0, To: 2, Lease: s.cfg.LeaseTimeout})
	if got := calls.Load(); got != 2 {
		t.Fatalf("verdicts across two peers = %d, want 2", got)
	}
}

// TestMultiCrashOneVerdictPerDeadPeer drives two staggered real crashes
// through the detector: every survivor endpoint must raise exactly one
// PeerDead per dead rank — two verdicts, two distinct peers, no
// double-eviction fodder — and the crashed ranks must raise none.
func TestMultiCrashOneVerdictPerDeadPeer(t *testing.T) {
	const ranks = 4
	crash1 := sim.Time(0).Add(sim.Millisecond)
	crash2 := sim.Time(0).Add(4 * sim.Millisecond)
	eng, _, s := hbStack(t, ranks, &fabric.FaultConfig{
		Crashes: []fabric.NodeCrash{{Rank: 1, At: crash1}, {Rank: 2, At: crash2}},
	})
	verdicts := make(map[int][]int) // observer -> dead peers, in order
	total := 0
	for r := 0; r < ranks; r++ {
		r := r
		s.SetHandler(r, func(m *fabric.Message) {})
		s.SetErrHandler(r, func(peer int, err error) {
			var pd *PeerDead
			if !errors.As(err, &pd) {
				t.Errorf("rank %d: verdict %v is not PeerDead", r, err)
			}
			verdicts[r] = append(verdicts[r], peer)
			total++
			// Survivors 0 and 3 each see both deaths; rank 2 sees only the
			// first before dying itself.
			if total == 2*2+1 {
				s.StopHeartbeats()
			}
		})
	}
	eng.Run()

	for _, r := range []int{0, 3} {
		if got := verdicts[r]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("survivor %d verdicts = %v, want [1 2]", r, got)
		}
	}
	if got := verdicts[2]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("rank 2 (dead second) verdicts = %v, want [1] before its own crash", got)
	}
	if got := verdicts[1]; len(got) != 0 {
		t.Fatalf("crashed rank 1 raised verdicts %v", got)
	}
}

func FuzzDecodeHeartbeat(f *testing.F) {
	f.Add(EncodeHeartbeat(Heartbeat{From: 3, Seq: 42, Sent: 1 << 30}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xA5}, HeartbeatBytes))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := DecodeHeartbeat(b)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode to the identical bytes.
		if out := EncodeHeartbeat(h); !bytes.Equal(out, b) {
			t.Fatalf("decode/encode mismatch: in %x out %x", b, out)
		}
	})
}

// TestStopHeartbeatsIdempotent: the termination detector may fire its
// listeners once per recovery epoch, so a second StopHeartbeats must be a
// harmless no-op — and beacons must stay stopped.
func TestStopHeartbeatsIdempotent(t *testing.T) {
	eng, _, s := hbStack(t, 2, nil)
	for r := 0; r < 2; r++ {
		s.SetHandler(r, func(m *fabric.Message) {})
	}
	eng.At(sim.Time(0).Add(5*sim.Millisecond), s.StopHeartbeats)
	eng.At(sim.Time(0).Add(5*sim.Millisecond), s.StopHeartbeats) // double stop, same instant
	eng.At(sim.Time(0).Add(6*sim.Millisecond), s.StopHeartbeats) // and again later
	end := eng.Run()
	if n := s.Metrics().Total("rel", "peer_dead"); n != 0 {
		t.Fatalf("healthy pair declared %d peers dead across a double stop", n)
	}
	if end.Sub(sim.Time(0)) > 7*sim.Millisecond {
		t.Fatalf("simulation ran to %v: a stopped detector kept scheduling ticks", end)
	}
}

// TestStopHeartbeatsAfterPeerDead: stopping after a crash verdict (the
// detector announces once the survivors' work drains) must not panic on the
// frozen endpoint's already-cancelled timers, and must let the simulation
// drain.
func TestStopHeartbeatsAfterPeerDead(t *testing.T) {
	const ranks, dead = 3, 1
	crashAt := sim.Time(0).Add(sim.Millisecond)
	eng, _, s := hbStack(t, ranks, &fabric.FaultConfig{
		Crashes: []fabric.NodeCrash{{Rank: dead, At: crashAt}},
	})
	verdicts := 0
	for r := 0; r < ranks; r++ {
		s.SetHandler(r, func(m *fabric.Message) {})
		s.SetErrHandler(r, func(peer int, err error) {
			verdicts++
			if verdicts == ranks-1 {
				s.StopHeartbeats()
				s.StopHeartbeats() // idempotent even right after the verdict
			}
		})
	}
	eng.Run()
	if verdicts != ranks-1 {
		t.Fatalf("%d verdicts, want %d", verdicts, ranks-1)
	}
}

// TestStallWatchStopsIdleDetector: an armed detector ticks forever on its own
// (the simulation never drains); with a watched progress that stands still
// and nothing computing it stops itself after stallLeases lease windows, and
// with progress moving or a worker busy it never does.
func TestStallWatchStopsIdleDetector(t *testing.T) {
	rc := DefaultConfig()
	rc.EnableHeartbeats()
	horizon := sim.Time(4 * stallLeases * rc.LeaseTimeout)
	for _, tc := range []struct {
		name  string
		probe func(eng *sim.Engine) func() (uint64, bool)
		stops uint64
	}{
		{"unarmed", nil, 0},
		{"standing still", func(*sim.Engine) func() (uint64, bool) {
			return func() (uint64, bool) { return 7, false }
		}, 1},
		{"computing", func(*sim.Engine) func() (uint64, bool) {
			return func() (uint64, bool) { return 7, true }
		}, 0},
		{"moving", func(eng *sim.Engine) func() (uint64, bool) {
			return func() (uint64, bool) { return uint64(eng.Now()), false }
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, _, s := hbStack(t, 3, nil)
			if tc.probe != nil {
				s.WatchProgress(tc.probe(eng))
			}
			eng.RunUntil(horizon)
			// Only an armed watch registers the counter; an unarmed one
			// shows itself by never draining.
			if tc.probe != nil {
				if got := s.Metrics().Total("rel", "hb_stall_stops"); got != tc.stops {
					t.Fatalf("hb_stall_stops = %d, want %d", got, tc.stops)
				}
			}
			if drained := eng.Pending() == 0; drained != (tc.stops > 0) {
				t.Fatalf("event queue drained = %v with %d stall stops", drained, tc.stops)
			}
		})
	}
}
