package bench

import (
	"strings"
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/netpipe"
	"amtlci/internal/stats"
)

// quick is the cheap measurement protocol for unit tests.
var quick = stats.Methodology{Runs: 2, Discard: 1}

func TestWorkersForMatchesPaper(t *testing.T) {
	if WorkersFor(stack.MPI, 1) != 128 || WorkersFor(stack.LCI, 1) != 128 {
		t.Fatal("single-node runs use all 128 cores (§6.1.2)")
	}
	if WorkersFor(stack.MPI, 16) != 127 {
		t.Fatal("MPI multi-node runs use 127 workers")
	}
	if WorkersFor(stack.LCI, 16) != 126 {
		t.Fatal("LCI multi-node runs use 126 workers (comm + progress threads)")
	}
}

func TestPingPongSizesSpanPaperRange(t *testing.T) {
	sizes := PingPongSizes()
	if sizes[0] != 8<<10 || sizes[len(sizes)-1] != 8<<20 {
		t.Fatalf("sweep %v must span 8 KiB..8 MiB", sizes)
	}
}

// TestOverlapLCIAdvantageGrowsAsTasksShrink is the longest of the package's
// parallel tests, and parallel tests start in declaration order: declared
// first, it starts first, and the shorter ones share the other slots.
func TestOverlapLCIAdvantageGrowsAsTasksShrink(t *testing.T) {
	t.Parallel()
	// Fig 3: at small fragments the MPI backend "struggles to move the
	// data fast enough" while LCI keeps pace.
	ratio := func(size int64) float64 {
		var v [2]float64
		for i, b := range []stack.Backend{stack.LCI, stack.MPI} {
			o := DefaultOverlapOpts(b, size)
			o.Runs = quick
			v[i] = Overlap(o).GFLOPS
		}
		return v[0] / v[1]
	}
	coarse := ratio(2 << 20)
	fine := ratio(64 << 10)
	if fine <= coarse {
		t.Fatalf("LCI/MPI ratio did not grow as tasks shrank: coarse %.2f fine %.2f", coarse, fine)
	}
	if fine < 1.5 {
		t.Fatalf("LCI/MPI ratio at 64 KiB = %.2f, want >= 1.5", fine)
	}
}

// TestFig2aAnchors pins the calibration against the paper's reported
// numbers (§6.2): MPI 62.5 Gbit/s at 128 KiB and 45.2 at 90.5 KiB; LCI 64.1
// at 45.25 KiB and 43.5 at 32 KiB. The simulator is expected to land within
// ~25% of each anchor; a regression outside that window means the cost model
// drifted.
func TestFig2aAnchors(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("calibration anchors are slow")
	}
	check := func(b stack.Backend, size int64, want float64) {
		o := DefaultPingPongOpts(b, size)
		o.Runs = quick
		o.Iters = 6
		got := PingPong(o).Gbps
		t.Logf("%-8v @%9s: got %6.1f Gbit/s, paper %6.1f", b, Bytes(size), got, want)
		if got < want*0.75 || got > want*1.25 {
			t.Errorf("%v @%s = %.1f Gbit/s, want %.1f±25%%", b, Bytes(size), got, want)
		}
	}
	check(stack.MPI, 131072, 62.5)
	check(stack.MPI, 92681, 45.2)
	check(stack.LCI, 46340, 64.1)
	check(stack.LCI, 32768, 43.5)
}

func TestPingPongLCIBeatsMPIAtFineGranularity(t *testing.T) {
	t.Parallel()
	for _, size := range []int64{16 << 10, 64 << 10} {
		var got [2]float64
		for i, b := range []stack.Backend{stack.LCI, stack.MPI} {
			o := DefaultPingPongOpts(b, size)
			o.Runs = quick
			o.Iters = 4
			got[i] = PingPong(o).Gbps
		}
		if got[0] <= got[1] {
			t.Fatalf("@%s: LCI %.1f <= MPI %.1f", Bytes(size), got[0], got[1])
		}
	}
}

func TestPingPongBothNearPeakAtCoarseGranularity(t *testing.T) {
	for _, b := range stack.Backends {
		o := DefaultPingPongOpts(b, 2<<20)
		o.Runs = quick
		o.Iters = 4
		if bw := PingPong(o).Gbps; bw < 80 {
			t.Fatalf("%v at 2 MiB = %.1f Gbit/s, want near peak", b, bw)
		}
	}
}

func TestPingPongNetPIPEBaselineAbovePaRSECAtSmallSizes(t *testing.T) {
	t.Parallel()
	// NetPIPE has no runtime overhead, so it upper-bounds both backends at
	// small fragments (visible in Fig 2a).
	size := int64(16 << 10)
	np := netpipe.Bandwidth(netpipe.DefaultConfig(), size)
	o := DefaultPingPongOpts(stack.LCI, size)
	o.Runs = quick
	o.Iters = 4
	if lci := PingPong(o).Gbps; lci >= np {
		t.Fatalf("LCI %.1f >= NetPIPE %.1f at 16 KiB", lci, np)
	}
}

func TestTwoStreamsExceedOneStreamAtFineGranularity(t *testing.T) {
	// Fig 2b: with two streams and plenty of fragments, both directions
	// carry data concurrently and aggregate bandwidth exceeds one stream's.
	one := DefaultPingPongOpts(stack.LCI, 512<<10)
	one.Runs = quick
	one.Iters = 4
	two := one
	two.Streams = 2
	bw1 := PingPong(one).Gbps
	bw2 := PingPong(two).Gbps
	if bw2 <= bw1*1.3 {
		t.Fatalf("two streams %.1f not well above one stream %.1f", bw2, bw1)
	}
}

func TestTwoStreamNoSyncAtLeastAsGoodAsSynced(t *testing.T) {
	// Fig 2b: removing inter-iteration synchronization can only help, and
	// bidirectional traffic approaches the 200 Gbit/s duplex peak. (The
	// paper's large-fragment queueing collapse — streams overtaking each
	// other until both travel in one direction at a time — is an emergent
	// race of the real system that the deterministic simulator does not
	// reproduce; see EXPERIMENTS.md.)
	synced := DefaultPingPongOpts(stack.LCI, 4<<20)
	synced.Streams = 2
	synced.Runs = quick
	synced.Iters = 4
	nosync := synced
	nosync.Sync = false
	a := PingPong(synced).Gbps
	b := PingPong(nosync).Gbps
	if b < a*0.98 {
		t.Fatalf("no-sync %.1f below synced %.1f", b, a)
	}
	if b < 160 {
		t.Fatalf("bidirectional no-sync %.1f well below duplex peak", b)
	}
}

func TestOverlapModelsBracketMeasurement(t *testing.T) {
	o := DefaultOverlapOpts(stack.LCI, 1<<20)
	o.Runs = quick
	r := Overlap(o)
	if r.GFLOPS <= 0 {
		t.Fatal("no throughput measured")
	}
	if r.Roofline < r.NoOverlap {
		t.Fatal("roofline below no-overlap model")
	}
	if r.GFLOPS > r.Roofline*1.1 {
		t.Fatalf("measured %.0f exceeds roofline %.0f", r.GFLOPS, r.Roofline)
	}
}

func TestHiCMASmallConfigCompletes(t *testing.T) {
	o := DefaultHiCMAOpts(stack.LCI, 1200, 4)
	o.N = 36000
	o.Runs = quick
	r := HiCMA(o)
	if r.TimeToSolution <= 0 || r.Tasks <= 0 {
		t.Fatalf("bad result %+v", r)
	}
	if r.E2ELatencyMS <= 0 {
		t.Fatal("no latency samples")
	}
}

func TestScaledProblem(t *testing.T) {
	n, tiles := ScaledProblem(1.0, PaperTileSizes)
	if n != 360000 || len(tiles) != len(PaperTileSizes) {
		t.Fatalf("full scale wrong: n=%d tiles=%v", n, tiles)
	}
	n, tiles = ScaledProblem(0.2, PaperTileSizes)
	if n%3600 != 0 || len(tiles) == 0 {
		t.Fatalf("scaled problem n=%d tiles=%v", n, tiles)
	}
	for _, nb := range tiles {
		if n%nb != 0 {
			t.Fatalf("tile %d does not divide %d", nb, n)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "granularity", "LCI", "Open MPI")
	tb.AddFloats("8 KiB", "%.1f", 12.3, 4.56)
	var sb strings.Builder
	tb.Write(&sb)
	out := sb.String()
	for _, want := range []string{"Fig X", "granularity", "12.3", "4.6"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	var md strings.Builder
	tb.Markdown(&md)
	if !strings.Contains(md.String(), "| 8 KiB | 12.3 | 4.6 |") {
		t.Fatalf("markdown:\n%s", md.String())
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("x", "a", "b")
	tbl.AddRow("plain", `quo"te,comma`)
	var sb strings.Builder
	tbl.CSV(&sb)
	want := "a,b\nplain,\"quo\"\"te,comma\"\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestBytesFormatting(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{0, "0 B"},
		{64, "64 B"},
		{1023, "1023 B"},
		{1 << 10, "1 KiB"},
		{8 << 10, "8 KiB"},
		{92681, "90.51 KiB"},
		{1<<20 - 1, "1024.00 KiB"},
		{1 << 20, "1 MiB"},
		{1<<20 + 1<<19, "1.50 MiB"}, // fractional MiB stays in MiB, not 1536 KiB
		{1<<20 + 1, "1.00 MiB"},
		{3 << 20, "3 MiB"},
		{256 << 20, "256 MiB"},
		{1 << 30, "1024 MiB"},
	}
	for _, c := range cases {
		if got := Bytes(c.n); got != c.want {
			t.Errorf("Bytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}
