package fabric

import (
	"testing"
	"testing/quick"

	"amtlci/internal/sim"
)

func quietConfig() Config {
	c := DefaultConfig()
	c.Jitter = 0
	return c
}

func mustNew(eng *sim.Engine, n int, cfg Config) *Fabric {
	f, err := New(eng, n, cfg)
	if err != nil {
		panic(err)
	}
	return f
}

func TestSerializeTime(t *testing.T) {
	eng := sim.NewEngine()
	f := mustNew(eng, 2, quietConfig())
	// 100 Gbit/s = 80 ps/byte.
	if got := f.SerializeTime(1); got != 80 {
		t.Errorf("SerializeTime(1) = %v ps, want 80", int64(got))
	}
	if got := f.SerializeTime(1 << 20); got != 80<<20 {
		t.Errorf("SerializeTime(1MiB) = %v, want %v", int64(got), 80<<20)
	}
	if f.SerializeTime(0) != 0 || f.SerializeTime(-5) != 0 {
		t.Error("non-positive sizes must serialize in zero time")
	}
}

func TestSingleMessageEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	cfg := quietConfig()
	f := mustNew(eng, 2, cfg)
	var arrived sim.Time
	f.SetHandler(1, func(m *Message) { arrived = eng.Now() })
	f.SetHandler(0, func(m *Message) {})
	f.Send(&Message{Src: 0, Dst: 1, Size: 1024})
	eng.Run()
	// Cut-through: serialization is paid once (LogGP), plus wire latency and
	// the receive engine's per-message overhead.
	want := sim.Time(cfg.MessageGap + f.SerializeTime(1024) + cfg.Latency + cfg.RxOverhead)
	if arrived != want {
		t.Fatalf("arrival = %v, want %v", arrived, want)
	}
}

func TestPayloadDelivery(t *testing.T) {
	eng := sim.NewEngine()
	f := mustNew(eng, 2, quietConfig())
	payload := []byte{1, 2, 3, 4}
	var got []byte
	f.SetHandler(1, func(m *Message) { got = m.Payload })
	f.Send(&Message{Src: 0, Dst: 1, Size: 4, Payload: payload})
	eng.Run()
	if len(got) != 4 || got[2] != 3 {
		t.Fatalf("payload = %v", got)
	}
}

func TestPayloadSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on payload/size mismatch")
		}
	}()
	eng := sim.NewEngine()
	f := mustNew(eng, 2, quietConfig())
	f.Send(&Message{Src: 0, Dst: 1, Size: 8, Payload: []byte{1}})
}

func TestStreamAchievesLinkBandwidth(t *testing.T) {
	// A back-to-back stream of large messages must sustain ~the configured
	// bandwidth: tx and rx serialization pipeline rather than add.
	eng := sim.NewEngine()
	cfg := quietConfig()
	f := mustNew(eng, 2, cfg)
	const msgSize = 1 << 20
	const count = 64
	var last sim.Time
	n := 0
	f.SetHandler(1, func(m *Message) { n++; last = eng.Now() })
	for i := 0; i < count; i++ {
		f.Send(&Message{Src: 0, Dst: 1, Size: msgSize})
	}
	eng.Run()
	if n != count {
		t.Fatalf("delivered %d, want %d", n, count)
	}
	gbps := float64(count*msgSize) * 8 / (sim.Duration(last).Seconds()) / 1e9
	if gbps < 0.9*cfg.BandwidthGbps || gbps > cfg.BandwidthGbps {
		t.Fatalf("stream bandwidth = %.1f Gbit/s, want ~%.0f", gbps, cfg.BandwidthGbps)
	}
}

func TestFullDuplexDirectionsIndependent(t *testing.T) {
	// Simultaneous opposite streams should each get full bandwidth.
	eng := sim.NewEngine()
	cfg := quietConfig()
	f := mustNew(eng, 2, cfg)
	const msgSize = 1 << 20
	const count = 32
	var done [2]sim.Time
	f.SetHandler(0, func(m *Message) { done[0] = eng.Now() })
	f.SetHandler(1, func(m *Message) { done[1] = eng.Now() })
	for i := 0; i < count; i++ {
		f.Send(&Message{Src: 0, Dst: 1, Size: msgSize})
		f.Send(&Message{Src: 1, Dst: 0, Size: msgSize})
	}
	eng.Run()
	for dir, last := range done {
		gbps := float64(count*msgSize) * 8 / sim.Duration(last).Seconds() / 1e9
		if gbps < 0.9*cfg.BandwidthGbps {
			t.Errorf("direction %d got %.1f Gbit/s under bidirectional load", dir, gbps)
		}
	}
}

func TestIngressContention(t *testing.T) {
	// Two senders converging on one receiver share its ingress: aggregate
	// delivered bandwidth stays ~BandwidthGbps, not 2x.
	eng := sim.NewEngine()
	cfg := quietConfig()
	f := mustNew(eng, 3, cfg)
	const msgSize = 1 << 20
	const count = 32
	var last sim.Time
	f.SetHandler(2, func(m *Message) { last = eng.Now() })
	for i := 0; i < count; i++ {
		f.Send(&Message{Src: 0, Dst: 2, Size: msgSize})
		f.Send(&Message{Src: 1, Dst: 2, Size: msgSize})
	}
	eng.Run()
	gbps := float64(2*count*msgSize) * 8 / sim.Duration(last).Seconds() / 1e9
	if gbps > 1.05*cfg.BandwidthGbps {
		t.Fatalf("incast delivered %.1f Gbit/s, exceeding link rate %.0f", gbps, cfg.BandwidthGbps)
	}
}

func TestSelfSendLoopback(t *testing.T) {
	eng := sim.NewEngine()
	cfg := quietConfig()
	f := mustNew(eng, 1, cfg)
	var at sim.Time
	f.SetHandler(0, func(m *Message) { at = eng.Now() })
	f.Send(&Message{Src: 0, Dst: 0, Size: 1 << 30}) // size must not matter
	eng.Run()
	if at != sim.Time(cfg.LoopbackLatency) {
		t.Fatalf("loopback at %v, want %v", at, cfg.LoopbackLatency)
	}
}

func TestBulkLaneOrderPreservedPerPair(t *testing.T) {
	// The bulk lane is FIFO per direction; only control-lane messages may
	// interleave (multi-queue-pair hardware has no cross-lane ordering).
	eng := sim.NewEngine()
	cfg := quietConfig()
	f := mustNew(eng, 2, cfg)
	var got []int
	f.SetHandler(1, func(m *Message) { got = append(got, m.Meta.(int)) })
	for i := 0; i < 50; i++ {
		f.Send(&Message{Src: 0, Dst: 1, Size: cfg.CtlBypass + int64(1+i%7*100), Meta: i})
	}
	eng.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery order %v", got)
		}
	}
}

func TestControlLaneBypassesBulkQueue(t *testing.T) {
	// A small control message sent after a deep queue of bulk transfers
	// must not wait for them (the CTS-starvation scenario).
	eng := sim.NewEngine()
	cfg := quietConfig()
	f := mustNew(eng, 2, cfg)
	var ctlAt sim.Time
	f.SetHandler(1, func(m *Message) {
		if m.Meta == "ctl" {
			ctlAt = eng.Now()
		}
	})
	for i := 0; i < 64; i++ {
		f.Send(&Message{Src: 0, Dst: 1, Size: 1 << 20})
	}
	f.Send(&Message{Src: 0, Dst: 1, Size: 64, Meta: "ctl"})
	eng.Run()
	if ctlAt == 0 {
		t.Fatal("control message never delivered")
	}
	if d := sim.Duration(ctlAt); d > cfg.Latency+10*sim.Microsecond {
		t.Fatalf("control message delayed %v behind bulk queue", d)
	}
}

func TestStatsConservation(t *testing.T) {
	// Property: for random traffic, total bytes/messages sent == received,
	// and per-rank counters are consistent.
	f := func(pairs []uint16) bool {
		eng := sim.NewEngine()
		fb := mustNew(eng, 4, quietConfig())
		for r := 0; r < 4; r++ {
			fb.SetHandler(r, func(m *Message) {})
		}
		for _, p := range pairs {
			src := int(p % 4)
			dst := int((p / 4) % 4)
			size := int64(p%1000) + 1
			fb.Send(&Message{Src: src, Dst: dst, Size: size})
		}
		eng.Run()
		reg := fb.Metrics()
		sentM := reg.Total("fabric", "msgs_sent")
		return reg.Total("fabric", "bytes_sent") == reg.Total("fabric", "bytes_received") &&
			sentM == reg.Total("fabric", "msgs_received") && sentM == uint64(len(pairs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMissingHandlerPanics(t *testing.T) {
	eng := sim.NewEngine()
	f := mustNew(eng, 2, quietConfig())
	f.Send(&Message{Src: 0, Dst: 1, Size: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("delivery without handler did not panic")
		}
	}()
	eng.Run()
}

func TestSmallMessageLatencyDominatedByWire(t *testing.T) {
	eng := sim.NewEngine()
	cfg := quietConfig()
	f := mustNew(eng, 2, cfg)
	var at sim.Time
	f.SetHandler(1, func(m *Message) { at = eng.Now() })
	f.Send(&Message{Src: 0, Dst: 1, Size: 8})
	eng.Run()
	lat := sim.Duration(at)
	if lat < cfg.Latency || lat > cfg.Latency+cfg.MessageGap+cfg.RxOverhead+sim.Microsecond {
		t.Fatalf("8B latency = %v, implausible for wire latency %v", lat, cfg.Latency)
	}
}

func TestJitterIsDeterministicAcrossFabrics(t *testing.T) {
	run := func() []sim.Time {
		eng := sim.NewEngine()
		cfg := DefaultConfig() // jitter enabled
		f := mustNew(eng, 2, cfg)
		var times []sim.Time
		f.SetHandler(1, func(m *Message) { times = append(times, eng.Now()) })
		for i := 0; i < 20; i++ {
			f.Send(&Message{Src: 0, Dst: 1, Size: 64})
		}
		eng.Run()
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed fabrics diverged")
		}
	}
}

func TestOnTxFiresAtSerializationEnd(t *testing.T) {
	eng := sim.NewEngine()
	cfg := quietConfig()
	f := mustNew(eng, 2, cfg)
	var txAt, rxAt sim.Time
	f.SetHandler(1, func(m *Message) { rxAt = eng.Now() })
	f.Send(&Message{Src: 0, Dst: 1, Size: 1 << 20, OnTx: func() { txAt = eng.Now() }})
	eng.Run()
	wantTx := sim.Time(cfg.MessageGap + f.SerializeTime(1<<20))
	if txAt != wantTx {
		t.Fatalf("OnTx at %v, want %v", txAt, wantTx)
	}
	if rxAt <= txAt {
		t.Fatalf("delivery %v not after OnTx %v", rxAt, txAt)
	}
}
