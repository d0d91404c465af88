package netpipe

import "testing"

func TestBandwidthSaturatesAtLinkRate(t *testing.T) {
	cfg := DefaultConfig()
	bw := Bandwidth(cfg, 8<<20)
	if bw < 0.85*cfg.Fabric.BandwidthGbps || bw > cfg.Fabric.BandwidthGbps {
		t.Fatalf("8 MiB bandwidth = %.1f Gbit/s, want near %.0f", bw, cfg.Fabric.BandwidthGbps)
	}
}

func TestBandwidthMonotoneInSize(t *testing.T) {
	cfg := DefaultConfig()
	prev := 0.0
	for _, size := range []int64{1 << 10, 8 << 10, 64 << 10, 512 << 10, 4 << 20} {
		bw := Bandwidth(cfg, size)
		if bw <= prev {
			t.Fatalf("bandwidth not increasing at %d bytes: %.2f <= %.2f", size, bw, prev)
		}
		prev = bw
	}
}

func TestSmallMessageBandwidthLatencyBound(t *testing.T) {
	cfg := DefaultConfig()
	bw := Bandwidth(cfg, 64)
	// 64 bytes over ~1.5µs half-RTT is well under 1 Gbit/s.
	if bw > 1 {
		t.Fatalf("64B bandwidth = %.3f Gbit/s, implausibly high", bw)
	}
}

func TestDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	if Bandwidth(cfg, 1<<20) != Bandwidth(cfg, 1<<20) {
		t.Fatal("NetPIPE not deterministic")
	}
}
