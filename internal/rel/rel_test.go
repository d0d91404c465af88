package rel

import (
	"errors"
	"fmt"
	"testing"

	"amtlci/internal/fabric"
	"amtlci/internal/metrics"
	"amtlci/internal/sim"
)

func pairStack(t *testing.T, ranks int, fc *fabric.FaultConfig) (*sim.Engine, *fabric.Fabric, *Stack) {
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
	s, err := New(fab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng, fab, s
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.AckBytes = 0 },
		func(c *Config) { c.RTO = 0 },
		func(c *Config) { c.Backoff = 0.5 },
		func(c *Config) { c.MaxRTO = c.RTO / 2 },
		func(c *Config) { c.MaxRetries = 0 },
		func(c *Config) { c.AckDelay = -1 },
		func(c *Config) { c.HeaderBytes = -1 },
	}
	for i, mod := range bads {
		c := DefaultConfig()
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestLossyLinkExactlyOnceInOrder is the core protocol property: under
// simultaneous drop, duplication, reordering and corruption, every message
// is delivered exactly once, in send order, with intact payload.
func TestLossyLinkExactlyOnceInOrder(t *testing.T) {
	eng, _, s := pairStack(t, 2, &fabric.FaultConfig{
		Drop: 0.08, Duplicate: 0.08, Corrupt: 0.08, Reorder: 0.08, Seed: 7,
	})
	const count = 300
	var got []int
	s.SetHandler(1, func(m *fabric.Message) {
		idx := m.Meta.(int)
		if m.Corrupted {
			t.Fatalf("corrupted message %d reached the upper layer", idx)
		}
		if int64(len(m.Payload)) != m.Size {
			t.Fatalf("message %d payload length %d != size %d", idx, len(m.Payload), m.Size)
		}
		if m.Payload[0] != byte(idx) || m.Payload[99] != byte(idx^0x5A) {
			t.Fatalf("message %d payload damaged", idx)
		}
		got = append(got, idx)
	})
	s.SetHandler(0, func(m *fabric.Message) {})
	for i := 0; i < count; i++ {
		p := make([]byte, 100)
		p[0], p[99] = byte(i), byte(i^0x5A)
		s.Send(&fabric.Message{Src: 0, Dst: 1, Size: 100, Payload: p, Meta: i})
	}
	eng.Run()
	if len(got) != count {
		t.Fatalf("delivered %d messages, want %d", len(got), count)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery order broken at %d: got %d", i, v)
		}
	}
	if r, d := s.Metrics().Total("rel", "retransmits"), s.Metrics().Total("rel", "dup_dropped"); r == 0 || d == 0 {
		t.Fatalf("fault recovery never exercised: %d retransmits, %d duplicates dropped", r, d)
	}
}

func TestCleanFabricNoRetransmits(t *testing.T) {
	eng, _, s := pairStack(t, 2, nil)
	n := 0
	s.SetHandler(1, func(m *fabric.Message) { n++ })
	s.SetHandler(0, func(m *fabric.Message) {})
	for i := 0; i < 50; i++ {
		s.Send(&fabric.Message{Src: 0, Dst: 1, Size: 64})
	}
	eng.Run()
	if n != 50 {
		t.Fatalf("clean run delivered %d, want 50", n)
	}
	for _, name := range []string{"retransmits", "dup_dropped", "corrupt_dropped"} {
		if got := s.Metrics().Total("rel", name); got != 0 {
			t.Fatalf("clean run counted %d rel/%s", got, name)
		}
	}
}

func TestOnTxFiresExactlyOncePerSend(t *testing.T) {
	// OnTx is a completion signal the libraries key buffer reuse off; a
	// retransmission must not fire it again.
	eng, _, s := pairStack(t, 2, &fabric.FaultConfig{Drop: 0.3, Seed: 3})
	s.SetHandler(1, func(m *fabric.Message) {})
	s.SetHandler(0, func(m *fabric.Message) {})
	tx := 0
	const count = 100
	for i := 0; i < count; i++ {
		s.Send(&fabric.Message{Src: 0, Dst: 1, Size: 64, OnTx: func() { tx++ }})
	}
	eng.Run()
	if tx != count {
		t.Fatalf("OnTx fired %d times for %d sends", tx, count)
	}
	if s.Metrics().Total("rel", "retransmits") == 0 {
		t.Fatal("no retransmissions at 30% drop — test proves nothing")
	}
}

func TestSeveredLinkDeclaresPeerUnreachable(t *testing.T) {
	eng, _, s := pairStack(t, 2, &fabric.FaultConfig{
		Links: []fabric.LinkFault{{Src: 0, Dst: 1, Sever: true}},
	})
	var gotPeer = -1
	var gotErr error
	s.SetErrHandler(0, func(peer int, err error) { gotPeer, gotErr = peer, err })
	s.SetHandler(1, func(m *fabric.Message) { t.Fatal("delivery across a severed link") })
	s.SetHandler(0, func(m *fabric.Message) {})
	s.Send(&fabric.Message{Src: 0, Dst: 1, Size: 64})
	end := eng.Run() // must terminate: timers stop after the budget
	if gotPeer != 1 {
		t.Fatalf("error handler saw peer %d, want 1", gotPeer)
	}
	var pu *PeerUnreachable
	if !errors.As(gotErr, &pu) {
		t.Fatalf("error %v is not PeerUnreachable", gotErr)
	}
	if pu.From != 0 || pu.To != 1 || pu.Attempts != DefaultConfig().MaxRetries+1 {
		t.Fatalf("bad error detail %+v", pu)
	}
	if n := s.Metrics().Total("rel", "unreachable"); n != 1 {
		t.Fatalf("unreachable = %d, want 1", n)
	}
	// Later sends to the dead peer are swallowed, not retried.
	sent := s.Metrics().Total("rel", "data_sent")
	s.Send(&fabric.Message{Src: 0, Dst: 1, Size: 64})
	eng.Run()
	if s.Metrics().Total("rel", "data_sent") != sent {
		t.Fatal("send to dead peer was accepted")
	}
	if end == 0 {
		t.Fatal("simulation ended at time zero")
	}
}

func TestLostAcksDoNotDuplicateDelivery(t *testing.T) {
	// Sever the reverse path only: data flows, every ACK is lost, the
	// sender retries until the budget declares the peer dead — but the
	// receiver must still see exactly one copy.
	eng, _, s := pairStack(t, 2, &fabric.FaultConfig{
		Links: []fabric.LinkFault{{Src: 1, Dst: 0, Sever: true}},
	})
	failed := false
	s.SetErrHandler(0, func(peer int, err error) { failed = true })
	n := 0
	s.SetHandler(1, func(m *fabric.Message) { n++ })
	s.SetHandler(0, func(m *fabric.Message) {})
	s.Send(&fabric.Message{Src: 0, Dst: 1, Size: 64})
	eng.Run()
	if n != 1 {
		t.Fatalf("receiver saw %d copies, want 1 (dup detection)", n)
	}
	if !failed {
		t.Fatal("sender never gave up without ACKs")
	}
	if s.Metrics().Total("rel", "dup_dropped") == 0 {
		t.Fatal("retransmissions were not recognized as duplicates")
	}
}

func TestUnhandledPeerDeathPanics(t *testing.T) {
	eng, _, s := pairStack(t, 2, &fabric.FaultConfig{
		Links: []fabric.LinkFault{{Src: 0, Dst: 1, Sever: true}},
	})
	s.SetHandler(1, func(m *fabric.Message) {})
	s.SetHandler(0, func(m *fabric.Message) {})
	s.Send(&fabric.Message{Src: 0, Dst: 1, Size: 64})
	defer func() {
		if recover() == nil {
			t.Fatal("peer death with no error handler must panic, not hang")
		}
	}()
	eng.Run()
}

func TestLoopbackBypassesProtocol(t *testing.T) {
	eng, _, s := pairStack(t, 2, &fabric.FaultConfig{Drop: 1})
	n := 0
	s.SetHandler(0, func(m *fabric.Message) { n++ })
	s.Send(&fabric.Message{Src: 0, Dst: 0, Size: 1 << 20})
	eng.Run()
	if n != 1 {
		t.Fatalf("loopback delivered %d, want 1", n)
	}
	if n := s.Metrics().Total("rel", "data_sent"); n != 0 {
		t.Fatalf("loopback entered the protocol: %d data frames", n)
	}
}

func TestManyPeersConcurrently(t *testing.T) {
	// All-to-all traffic on a lossy 8-rank fabric: per-pair ordering holds
	// independently.
	const ranks, per = 8, 40
	eng, _, s := pairStack(t, ranks, &fabric.FaultConfig{
		Drop: 0.05, Duplicate: 0.05, Reorder: 0.05, Seed: 11,
	})
	got := make(map[[2]int][]int)
	for r := 0; r < ranks; r++ {
		rr := r
		s.SetHandler(rr, func(m *fabric.Message) {
			key := [2]int{m.Src, rr}
			got[key] = append(got[key], m.Meta.(int))
		})
	}
	for i := 0; i < per; i++ {
		for src := 0; src < ranks; src++ {
			for dst := 0; dst < ranks; dst++ {
				if src == dst {
					continue
				}
				s.Send(&fabric.Message{Src: src, Dst: dst, Size: 128, Meta: i})
			}
		}
	}
	eng.Run()
	for src := 0; src < ranks; src++ {
		for dst := 0; dst < ranks; dst++ {
			if src == dst {
				continue
			}
			seq := got[[2]int{src, dst}]
			if len(seq) != per {
				t.Fatalf("pair %d->%d delivered %d, want %d", src, dst, len(seq), per)
			}
			for i, v := range seq {
				if v != i {
					t.Fatalf("pair %d->%d order broken: %v", src, dst, seq)
				}
			}
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (sim.Time, *metrics.Registry, string) {
		eng, _, s := pairStack(t, 4, &fabric.FaultConfig{
			Drop: 0.1, Duplicate: 0.1, Corrupt: 0.1, Reorder: 0.1, Seed: 99,
		})
		var trace string
		for r := 0; r < 4; r++ {
			rr := r
			s.SetHandler(rr, func(m *fabric.Message) {
				trace += fmt.Sprintf("%d<%d:%v;", rr, m.Src, m.Meta)
			})
		}
		for i := 0; i < 60; i++ {
			s.Send(&fabric.Message{Src: i % 3, Dst: (i + 1) % 4, Size: 256, Meta: i})
		}
		end := eng.Run()
		return end, s.Metrics(), trace
	}
	e1, r1, t1 := run()
	e2, r2, t2 := run()
	if e1 != e2 || t1 != t2 {
		t.Fatalf("same seed diverged: ended %v vs %v", e1, e2)
	}
	if d := metrics.Diff(r1, r2); d != "" {
		t.Fatalf("same seed diverged: %s", d)
	}
}
