package lcice

import (
	"bytes"
	"testing"

	"amtlci/internal/buf"
	"amtlci/internal/core"
	"amtlci/internal/fabric"
	"amtlci/internal/lci"
	"amtlci/internal/sim"
)

func harness(n int, cfg Config) (*sim.Engine, []*Engine) {
	return harnessLCI(n, cfg, lci.DefaultConfig())
}

// harnessLCI is harness with an explicit LCI library configuration.
func harnessLCI(n int, cfg Config, lcfg lci.Config) (*sim.Engine, []*Engine) {
	eng := sim.NewEngine()
	fc := fabric.DefaultConfig()
	fc.Jitter = 0
	fab, err := fabric.New(eng, n, fc)
	if err != nil {
		panic(err)
	}
	rt := lci.NewRuntime(eng, fab, lcfg)
	engines := make([]*Engine, n)
	for i := range engines {
		engines[i] = New(eng, rt, i, cfg)
	}
	return eng, engines
}

func TestAMBatchFairness(t *testing.T) {
	// §5.3.4: the communication thread processes at most AMBatch (five)
	// active-message completions before giving the bulk queue a turn. Flood
	// both queues and verify bulk work interleaves rather than starving.
	eng, engines := harness(2, DefaultConfig())
	e := engines[1]
	var order []string
	push := func(q func(*handle), what string) {
		h := e.newHandle()
		h.localCB = func() { order = append(order, what) }
		q(h)
	}
	for i := 0; i < 12; i++ {
		push(e.pushAM, "am")
	}
	for i := 0; i < 3; i++ {
		push(e.pushBulk, "bulk")
	}
	eng.Run()
	if len(order) != 15 {
		t.Fatalf("processed %d items", len(order))
	}
	// The first 5 must be AMs, then the bulk queue drains before the next
	// AM batch.
	for i := 0; i < 5; i++ {
		if order[i] != "am" {
			t.Fatalf("order %v: first batch not AMs", order)
		}
	}
	bulkIdx := -1
	for i, v := range order {
		if v == "bulk" {
			bulkIdx = i
			break
		}
	}
	if bulkIdx != 5 {
		t.Fatalf("order %v: bulk did not run after the first AM batch", order)
	}
}

func TestDeferredOperationsRetry(t *testing.T) {
	// An operation hitting ErrRetry lands on the communication thread's
	// deferred queue and retries until it succeeds (§5.3.3 delegation): with
	// a single send packet, every active message after the first is refused
	// until the one before it has left the NIC.
	lcfg := lci.DefaultConfig()
	lcfg.SendPackets = 1
	eng, engines := harnessLCI(2, DefaultConfig(), lcfg)
	src, dst := engines[0], engines[1]
	const tag core.Tag = 5
	var got []byte
	for _, e := range engines {
		e.TagReg(tag, func(_ core.Engine, _ core.Tag, data []byte, _ int) {
			got = append(got, data[0])
		}, 8)
	}
	for i := byte(0); i < 3; i++ {
		src.SendAM(tag, 1, []byte{i})
	}
	eng.Run()
	if !bytes.Equal(got, []byte{0, 1, 2}) {
		t.Fatalf("delivered %v, want [0 1 2] in order", got)
	}
	if d := src.Deferred.Value(); d < 2 {
		t.Fatalf("deferred %d operations, want at least 2", d)
	}
	if s, d := src.AMsSent.Value(), dst.AMsDelivered.Value(); s != 3 || d != 3 {
		t.Fatalf("sent %d delivered %d, want 3 and 3", s, d)
	}
}

func TestInlineProgressSharesCommThread(t *testing.T) {
	eng, engines := harness(2, func() Config {
		c := DefaultConfig()
		c.InlineProgress = true
		return c
	}())
	e := engines[0]
	if e.ProgProc() != e.CommProc() {
		t.Fatal("inline progress must reuse the communication thread")
	}
	_ = eng
}

func TestDedicatedProgressThreadSeparate(t *testing.T) {
	_, engines := harness(2, DefaultConfig())
	if engines[0].ProgProc() == engines[0].CommProc() {
		t.Fatal("default configuration must dedicate a progress thread")
	}
}

func TestEagerPutDataRidesHandshake(t *testing.T) {
	// §5.3.3: payloads at or below EagerPutMax travel inside the handshake:
	// exactly one wire message per put (plus none for data), and the local
	// callback fires without waiting for a round trip.
	eng, engines := harness(2, DefaultConfig())
	src, dst := engines[0], engines[1]
	const doneTag core.Tag = 7
	got := 0
	for _, e := range engines {
		e.TagReg(doneTag, func(core.Engine, core.Tag, []byte, int) { got++ }, 64)
	}
	payload := []byte{1, 2, 3, 4}
	target := make([]byte, 4)
	lreg := src.MemReg(buf.FromBytes(payload))
	rreg := dst.MemReg(buf.FromBytes(target))
	src.Submit(0, func() {
		src.Put(core.PutArgs{LReg: lreg, RReg: rreg, Size: 4, Remote: 1, RTag: doneTag})
	})
	eng.Run()
	if got != 1 || target[3] != 4 {
		t.Fatalf("eager put failed: got=%d target=%v", got, target)
	}
	if n := src.PutsDone.Value(); n != 1 {
		t.Fatalf("puts done = %d, want 1", n)
	}
}

// TestDeferredPutsStayFIFOUnderStarvation cuts the LCI Direct pool to a
// single slot so that every rendezvous put beyond the first hits ErrRetry
// and lands on the communication thread's deferred queue. Sustained
// starvation must drain that queue in FIFO order — no put dropped, none
// reordered, and no freshly issued operation overtaking an older deferral.
func TestDeferredPutsStayFIFOUnderStarvation(t *testing.T) {
	lcfg := lci.DefaultConfig()
	lcfg.MaxDirect = 1
	eng, engines := harnessLCI(2, DefaultConfig(), lcfg)
	src, dst := engines[0], engines[1]
	const nputs = 8
	const size = int64(9000) // > EagerPutMax: forces the rendezvous path
	const doneTag core.Tag = 9
	var order []int
	for _, e := range engines {
		e.TagReg(doneTag, func(_ core.Engine, _ core.Tag, data []byte, _ int) {
			order = append(order, int(data[0]))
		}, 8)
	}
	targets := make([][]byte, nputs)
	payloads := make([][]byte, nputs)
	for i := 0; i < nputs; i++ {
		payloads[i] = make([]byte, size)
		for j := range payloads[i] {
			payloads[i][j] = byte(i*37 + j)
		}
		targets[i] = make([]byte, size)
		lreg := src.MemReg(buf.FromBytes(payloads[i]))
		rreg := dst.MemReg(buf.FromBytes(targets[i]))
		i := i
		src.Submit(0, func() {
			src.Put(core.PutArgs{LReg: lreg, RReg: rreg, Size: size, Remote: 1,
				RTag: doneTag, RCBData: []byte{byte(i)}})
		})
	}
	eng.Run()
	if len(order) != nputs {
		t.Fatalf("%d of %d puts completed: %v", len(order), nputs, order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order %v is not FIFO", order)
		}
	}
	for i := range targets {
		if !bytes.Equal(targets[i], payloads[i]) {
			t.Fatalf("put %d payload corrupted", i)
		}
	}
	if src.Deferred.Value() == 0 && dst.Deferred.Value() == 0 {
		t.Fatal("Direct-pool starvation never deferred an operation")
	}
}
