package stack

import (
	"strings"
	"testing"

	"amtlci/internal/fabric"
	"amtlci/internal/metrics"
)

// Build uses the fabric config as given, so explicit zeros — e.g.
// Jitter = 0 for a noiseless chaos run — are respected.
func TestFabricConfigCompletePassesThrough(t *testing.T) {
	o := DefaultOptions(MPI, 2)
	o.Fabric.Jitter = 0
	s := Build(o)
	if got := s.Fab.Config().Jitter; got != 0 {
		t.Errorf("Jitter = %g, want explicit 0 preserved", got)
	}
}

// Build fills in no fabric defaults: a zero Fabric reaches
// fabric.Config.Validate and fails there.
func TestZeroFabricConfigPanics(t *testing.T) {
	o := DefaultOptions(LCI, 2)
	o.Fabric = fabric.Config{}
	defer func() {
		err, _ := recover().(error)
		if err == nil || !strings.Contains(err.Error(), "bandwidth must be positive") {
			t.Fatalf("Build with a zero Fabric: recovered %v, want the bandwidth error", err)
		}
	}()
	Build(o)
}

func TestParseBackend(t *testing.T) {
	good := map[string]Backend{
		"lci": LCI, "LCI": LCI,
		"mpi": MPI, "MPI": MPI, "openmpi": MPI, "Open-MPI": MPI,
	}
	for in, want := range good {
		b, err := ParseBackend(in)
		if err != nil || b != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v, nil", in, b, err, want)
		}
	}
	for _, in := range []string{"", "lc", "mpii", "ucx"} {
		if _, err := ParseBackend(in); err == nil {
			t.Errorf("ParseBackend(%q) accepted a typo", in)
		}
	}
}

// Build must thread one registry through every layer; with no explicit
// registry it still creates and exposes a shared one.
func TestSharedMetricsRegistry(t *testing.T) {
	for _, b := range Backends {
		reg := metrics.New()
		o := DefaultOptions(b, 2)
		o.Metrics = reg
		s := Build(o)
		if s.Metrics != reg {
			t.Fatalf("%v: Stack.Metrics is not the supplied registry", b)
		}
		if s.Fab.Metrics() != reg {
			t.Fatalf("%v: fabric did not inherit the shared registry", b)
		}
		// Every layer of the chosen backend registered instruments.
		for _, layer := range []string{"fabric"} {
			found := false
			for _, snap := range reg.Snapshots() {
				if snap.Desc.Layer == layer {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%v: no instruments registered for layer %q", b, layer)
			}
		}
		switch b {
		case MPI:
			if s.MPIWorld.Metrics() != reg {
				t.Errorf("mpi world has a private registry")
			}
		case LCI:
			if s.LCIRuntime.Metrics() != reg {
				t.Errorf("lci runtime has a private registry")
			}
		}
	}
}
