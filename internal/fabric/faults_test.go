package fabric

import (
	"strings"
	"testing"

	"amtlci/internal/metrics"
	"amtlci/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	mod := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" means valid
	}{
		{"default", DefaultConfig(), ""},
		{"zero latency ok", mod(func(c *Config) { c.Latency = 0 }), ""},
		{"zero gap ok", mod(func(c *Config) { c.MessageGap = 0 }), ""},
		{"zero bandwidth", mod(func(c *Config) { c.BandwidthGbps = 0 }), "bandwidth"},
		{"negative bandwidth", mod(func(c *Config) { c.BandwidthGbps = -1 }), "bandwidth"},
		{"negative latency", mod(func(c *Config) { c.Latency = -sim.Nanosecond }), "latency"},
		{"negative gap", mod(func(c *Config) { c.MessageGap = -sim.Nanosecond }), "gap"},
		{"negative rx", mod(func(c *Config) { c.RxOverhead = -1 }), "rx overhead"},
		{"negative loopback", mod(func(c *Config) { c.LoopbackLatency = -1 }), "loopback"},
		{"negative ctl bypass", mod(func(c *Config) { c.CtlBypass = -1 }), "control-lane"},
		{"negative jitter", mod(func(c *Config) { c.Jitter = -0.1 }), "jitter"},
		{"jitter one", mod(func(c *Config) { c.Jitter = 1 }), "jitter"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if _, err := New(sim.NewEngine(), 0, DefaultConfig()); err == nil {
		t.Error("New with zero ranks must fail")
	}
	if _, err := New(sim.NewEngine(), 2, Config{}); err == nil {
		t.Error("New with zero config must fail (no bandwidth)")
	}
}

func TestFaultConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  FaultConfig
		ok   bool
	}{
		{"zero", FaultConfig{}, true},
		{"typical", FaultConfig{Drop: 0.02, Duplicate: 0.02, Corrupt: 0.02, Reorder: 0.02}, true},
		{"prob high", FaultConfig{Drop: 1.5}, false},
		{"prob negative", FaultConfig{Corrupt: -0.1}, false},
		{"negative delay", FaultConfig{ReorderDelay: -1}, false},
		{"bad link rank", FaultConfig{Links: []LinkFault{{Src: -2, Dst: 0}}}, false},
		{"inverted window", FaultConfig{Links: []LinkFault{{Src: 0, Dst: 1, From: 100, Until: 50}}}, false},
		{"wildcard sever", FaultConfig{Links: []LinkFault{{Src: -1, Dst: -1, Sever: true}}}, true},
		{"bad bw factor", FaultConfig{Links: []LinkFault{{Src: 0, Dst: 1, BandwidthFactor: 2}}}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
}

// lossyPair builds a 2-rank fabric with the given fault schedule and counts
// deliveries at rank 1.
func lossyPair(t *testing.T, fc FaultConfig) (*sim.Engine, *Fabric, *int) {
	t.Helper()
	eng := sim.NewEngine()
	f := mustNew(eng, 2, quietConfig())
	if err := f.InstallFaults(fc); err != nil {
		t.Fatal(err)
	}
	n := new(int)
	f.SetHandler(1, func(m *Message) { *n++ })
	f.SetHandler(0, func(m *Message) {})
	return eng, f, n
}

func TestDropStillFiresOnTx(t *testing.T) {
	eng, f, n := lossyPair(t, FaultConfig{Drop: 1})
	tx := 0
	for i := 0; i < 20; i++ {
		f.Send(&Message{Src: 0, Dst: 1, Size: 64, OnTx: func() { tx++ }})
	}
	eng.Run()
	if *n != 0 {
		t.Fatalf("%d messages delivered with drop probability 1", *n)
	}
	if tx != 20 {
		t.Fatalf("OnTx fired %d times, want 20 (tx completes even when the wire drops)", tx)
	}
	if n := f.Metrics().Total("fabric", "faults_dropped"); n != 20 {
		t.Fatalf("dropped %d, want 20", n)
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	eng, f, n := lossyPair(t, FaultConfig{Duplicate: 1})
	const count = 10
	for i := 0; i < count; i++ {
		f.Send(&Message{Src: 0, Dst: 1, Size: 64})
	}
	eng.Run()
	if *n != 2*count {
		t.Fatalf("delivered %d, want %d (every message duplicated)", *n, 2*count)
	}
	// Bulk lane duplicates too.
	eng2, f2, n2 := lossyPair(t, FaultConfig{Duplicate: 1})
	f2.Send(&Message{Src: 0, Dst: 1, Size: 1 << 20})
	eng2.Run()
	if *n2 != 2 {
		t.Fatalf("bulk duplicate delivered %d, want 2", *n2)
	}
}

func TestCorruptFlagAndPayloadFlip(t *testing.T) {
	eng := sim.NewEngine()
	f := mustNew(eng, 2, quietConfig())
	if err := f.InstallFaults(FaultConfig{Corrupt: 1}); err != nil {
		t.Fatal(err)
	}
	orig := []byte{1, 2, 3, 4}
	var got *Message
	f.SetHandler(1, func(m *Message) { got = m })
	f.Send(&Message{Src: 0, Dst: 1, Size: 4, Payload: orig})
	eng.Run()
	if got == nil || !got.Corrupted {
		t.Fatal("message not marked corrupted")
	}
	diff := 0
	for i := range orig {
		if got.Payload[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d payload bytes differ, want exactly 1", diff)
	}
	if orig[0] != 1 || orig[1] != 2 || orig[2] != 3 || orig[3] != 4 {
		t.Fatal("sender's buffer was mutated; corruption must copy")
	}
}

func TestLoopbackNeverFaulted(t *testing.T) {
	eng, f, _ := lossyPair(t, FaultConfig{Drop: 1, Corrupt: 1})
	delivered := 0
	f.SetHandler(0, func(m *Message) {
		delivered++
		if m.Corrupted {
			t.Error("loopback message corrupted")
		}
	})
	f.Send(&Message{Src: 0, Dst: 0, Size: 64})
	eng.Run()
	if delivered != 1 {
		t.Fatalf("loopback delivered %d, want 1", delivered)
	}
}

func TestFaultScheduleDeterministic(t *testing.T) {
	run := func() *metrics.Registry {
		eng := sim.NewEngine()
		f := mustNew(eng, 3, quietConfig())
		if err := f.InstallFaults(FaultConfig{Drop: 0.3, Duplicate: 0.2, Corrupt: 0.1, Reorder: 0.1, Seed: 42}); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			f.SetHandler(r, func(m *Message) {})
		}
		for i := 0; i < 200; i++ {
			f.Send(&Message{Src: i % 2, Dst: 2, Size: 64})
		}
		eng.Run()
		return f.Metrics()
	}
	a, b := run(), run()
	if d := metrics.Diff(a, b); d != "" {
		t.Fatalf("same seed diverged: %s", d)
	}
	for _, class := range []string{"faults_dropped", "faults_duplicated", "faults_corrupted", "faults_reordered"} {
		if a.Total("fabric", class) == 0 {
			t.Fatalf("expected every fault class to fire over 200 messages: %s is 0", class)
		}
	}
}

func TestSeverWindow(t *testing.T) {
	// Sever 0->1 during [10us, 20us): messages sent before and after get
	// through, messages inside vanish.
	eng := sim.NewEngine()
	f := mustNew(eng, 2, quietConfig())
	err := f.InstallFaults(FaultConfig{Links: []LinkFault{{
		Src: 0, Dst: 1, Sever: true,
		From:  sim.Time(10 * sim.Microsecond),
		Until: sim.Time(20 * sim.Microsecond),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	f.SetHandler(1, func(m *Message) { got++ })
	for _, at := range []sim.Duration{0, 5 * sim.Microsecond, 12 * sim.Microsecond, 15 * sim.Microsecond, 25 * sim.Microsecond} {
		eng.After(at, func() { f.Send(&Message{Src: 0, Dst: 1, Size: 64}) })
	}
	eng.Run()
	if got != 3 {
		t.Fatalf("delivered %d, want 3 (two sends fall inside the sever window)", got)
	}
	if n := f.Metrics().Total("fabric", "faults_severed"); n != 2 {
		t.Fatalf("severed %d, want 2", n)
	}
}

func TestLatencySpikeAndBandwidthCut(t *testing.T) {
	base := func(fc *FaultConfig) sim.Time {
		eng := sim.NewEngine()
		f := mustNew(eng, 2, quietConfig())
		if fc != nil {
			if err := f.InstallFaults(*fc); err != nil {
				t.Fatal(err)
			}
		}
		var at sim.Time
		f.SetHandler(1, func(m *Message) { at = eng.Now() })
		f.Send(&Message{Src: 0, Dst: 1, Size: 1 << 20})
		eng.Run()
		return at
	}
	clean := base(nil)
	spike := base(&FaultConfig{Links: []LinkFault{{Src: -1, Dst: -1, ExtraLatency: 50 * sim.Microsecond}}})
	if want := clean + sim.Time(50*sim.Microsecond); spike != want {
		t.Fatalf("latency spike arrival %v, want %v", spike, want)
	}
	cut := base(&FaultConfig{Links: []LinkFault{{Src: -1, Dst: -1, BandwidthFactor: 0.5}}})
	if cut <= clean {
		t.Fatalf("bandwidth cut arrival %v not later than clean %v", cut, clean)
	}
}

func TestNodeCrashSilencesRank(t *testing.T) {
	eng := sim.NewEngine()
	f := mustNew(eng, 3, quietConfig())
	crashAt := sim.Time(0).Add(50 * sim.Microsecond)
	if err := f.InstallFaults(FaultConfig{Crashes: []NodeCrash{{Rank: 1, At: crashAt}}}); err != nil {
		t.Fatal(err)
	}
	var crashedRank = -1
	f.OnCrash(func(r int) { crashedRank = r })
	got := make([]int, 3)
	for r := 0; r < 3; r++ {
		r := r
		f.SetHandler(r, func(m *Message) { got[r]++ })
	}
	// Before the crash everything flows; after it rank 1 neither sends nor
	// receives, while the 0<->2 link is untouched.
	send := func(src, dst int) { f.Send(&Message{Src: src, Dst: dst, Size: 64}) }
	send(0, 1)
	send(1, 0)
	send(0, 2)
	eng.At(crashAt.Add(sim.Microsecond), func() {
		send(0, 1) // into the dead rank: dropped
		send(1, 0) // out of the dead rank: dropped
		send(2, 0) // survivors unaffected
	})
	eng.Run()
	if crashedRank != 1 {
		t.Fatalf("OnCrash saw rank %d, want 1", crashedRank)
	}
	if !f.Crashed(1) || f.Crashed(0) || f.Crashed(2) {
		t.Fatalf("Crashed() = [%v %v %v], want only rank 1", f.Crashed(0), f.Crashed(1), f.Crashed(2))
	}
	if got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("deliveries = %v, want [2 1 1]", got)
	}
	if c, d := f.Metrics().Total("fabric", "crashes"), f.Metrics().Total("fabric", "faults_crash_dropped"); c != 1 || d != 2 {
		t.Fatalf("%d crashes, %d crash-dropped, want 1 and 2", c, d)
	}
}

func TestNodeCrashDropsInFlight(t *testing.T) {
	eng := sim.NewEngine()
	f := mustNew(eng, 2, quietConfig())
	// Crash the destination while a bulk message is on the wire: it left the
	// sender's NIC before the failure but must not be delivered.
	if err := f.InstallFaults(FaultConfig{Crashes: []NodeCrash{{Rank: 1, At: sim.Time(0).Add(2 * sim.Microsecond)}}}); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	f.SetHandler(1, func(m *Message) { delivered++ })
	f.SetHandler(0, func(m *Message) {})
	tx := false
	f.Send(&Message{Src: 0, Dst: 1, Size: 1 << 20, OnTx: func() { tx = true }})
	eng.Run()
	if !tx {
		t.Fatal("OnTx must fire: the message left the source NIC before the crash")
	}
	if delivered != 0 {
		t.Fatalf("delivered %d messages to a crashed rank, want 0", delivered)
	}
	if n := f.Metrics().Total("fabric", "faults_crash_dropped"); n != 1 {
		t.Fatalf("crash-dropped %d, want 1", n)
	}
}

func TestNodeCrashValidation(t *testing.T) {
	bad := []FaultConfig{
		{Crashes: []NodeCrash{{Rank: -1, At: sim.Time(0).Add(sim.Microsecond)}}},
		{Crashes: []NodeCrash{{Rank: 0, At: 0}}},
		{Crashes: []NodeCrash{
			{Rank: 0, At: sim.Time(0).Add(sim.Microsecond)},
			{Rank: 0, At: sim.Time(0).Add(2 * sim.Microsecond)},
		}},
	}
	for i, fc := range bad {
		if err := fc.Validate(); err == nil {
			t.Errorf("case %d: invalid crash config accepted", i)
		}
	}
	eng := sim.NewEngine()
	f := mustNew(eng, 2, quietConfig())
	if err := f.InstallFaults(FaultConfig{Crashes: []NodeCrash{{Rank: 7, At: sim.Time(0).Add(sim.Microsecond)}}}); err == nil {
		t.Error("out-of-range crash rank accepted")
	}
}

// TestOnDoneOncePerSend pins the OnDone contract a pooling sender relies on:
// whatever becomes of a message — delivered on either lane, duplicated,
// dropped, corrupted, looped back, swallowed by a crashed source or
// destination at Send, or lost to a destination that crashed while it was on
// the wire — OnDone runs exactly once, and never before the last delivered
// copy's handler has returned.
func TestOnDoneOncePerSend(t *testing.T) {
	crash := func(rank int, at sim.Duration) []NodeCrash {
		return []NodeCrash{{Rank: rank, At: sim.Time(0).Add(at)}}
	}
	cases := []struct {
		name      string
		faults    FaultConfig
		src, dst  int
		size      int64
		sendAt    sim.Duration
		delivered int
	}{
		{"delivered/ctl", FaultConfig{}, 0, 1, 64, 0, 1},
		{"delivered/bulk", FaultConfig{}, 0, 1, 1 << 20, 0, 1},
		{"duplicated/ctl", FaultConfig{Duplicate: 1}, 0, 1, 64, 0, 2},
		{"duplicated/bulk", FaultConfig{Duplicate: 1}, 0, 1, 1 << 20, 0, 2},
		{"dropped/ctl", FaultConfig{Drop: 1}, 0, 1, 64, 0, 0},
		{"dropped/bulk", FaultConfig{Drop: 1}, 0, 1, 1 << 20, 0, 0},
		{"corrupted", FaultConfig{Corrupt: 1}, 0, 1, 64, 0, 1},
		{"loopback", FaultConfig{Drop: 1}, 0, 0, 64, 0, 1},
		{"crashed source", FaultConfig{Crashes: crash(0, sim.Microsecond)}, 0, 1, 64, 2 * sim.Microsecond, 0},
		{"crashed destination", FaultConfig{Crashes: crash(1, sim.Microsecond)}, 0, 1, 64, 2 * sim.Microsecond, 0},
		{"crashed destination in flight", FaultConfig{Crashes: crash(1, 2*sim.Microsecond)}, 0, 1, 1 << 20, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			f := mustNew(eng, 2, quietConfig())
			if err := f.InstallFaults(tc.faults); err != nil {
				t.Fatal(err)
			}
			delivered, done := 0, 0
			for r := 0; r < 2; r++ {
				f.SetHandler(r, func(*Message) {
					if done != 0 {
						t.Error("a copy was delivered after OnDone")
					}
					delivered++
				})
			}
			payload := make([]byte, tc.size)
			eng.At(sim.Time(0).Add(tc.sendAt), func() {
				f.Send(&Message{Src: tc.src, Dst: tc.dst, Size: tc.size, Payload: payload,
					OnDone: func() {
						if delivered != tc.delivered {
							t.Errorf("OnDone after %d deliveries, want %d", delivered, tc.delivered)
						}
						done++
					}})
			})
			eng.Run()
			if done != 1 || delivered != tc.delivered {
				t.Fatalf("OnDone ran %d times, %d deliveries; want once and %d", done, delivered, tc.delivered)
			}
		})
	}
}
