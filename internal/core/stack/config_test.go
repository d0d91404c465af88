package stack

import (
	"strings"
	"testing"

	"amtlci/internal/fabric"
	"amtlci/internal/lci"
	"amtlci/internal/metrics"
	"amtlci/internal/mpi"
	"amtlci/internal/rel"
	"amtlci/internal/sim"
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

// Every layer of a deployment registers in its fabric's registry, which
// Stack.Metrics exposes; a layer built on its own over a fabric does the
// same, and two deployments never share one.
func TestSharedMetricsRegistry(t *testing.T) {
	registered := func(reg *metrics.Registry, layer string) bool {
		for _, snap := range reg.Snapshots() {
			if snap.Desc.Layer == layer {
				return true
			}
		}
		return false
	}
	for _, b := range Backends {
		for _, withRel := range []bool{false, true} {
			o := DefaultOptions(b, 2)
			layers := []string{"fabric", "mpi", "mpice"}
			if b == LCI {
				layers = []string{"fabric", "lci", "lcice"}
			}
			if withRel {
				rc := rel.DefaultConfig()
				o.Rel = &rc
				layers = append(layers, "rel")
			}
			s := Build(o)
			if s.Metrics == nil || s.Metrics == New(b, 2).Metrics {
				t.Fatalf("%v rel=%v: Stack.Metrics is nil or shared with another stack", b, withRel)
			}
			got := []*metrics.Registry{s.Fab.Metrics(), s.Net.Metrics()}
			if withRel {
				got = append(got, s.Rel.Metrics())
			}
			if b == MPI {
				got = append(got, s.MPIWorld.Metrics())
			} else {
				got = append(got, s.LCIRuntime.Metrics())
			}
			for i, reg := range got {
				if reg != s.Metrics {
					t.Errorf("%v rel=%v: layer handle %d returns another registry", b, withRel, i)
				}
			}
			for _, layer := range layers {
				if !registered(s.Metrics, layer) {
					t.Errorf("%v rel=%v: no instruments registered for layer %q", b, withRel, layer)
				}
			}
		}
	}

	for _, c := range []struct {
		layer string
		build func(*fabric.Fabric)
	}{
		{"mpi", func(fab *fabric.Fabric) { mpi.NewWorld(fab.Domain(), fab, mpi.DefaultConfig()) }},
		{"lci", func(fab *fabric.Fabric) { lci.NewRuntime(fab.Domain(), fab, lci.DefaultConfig()) }},
		{"rel", func(fab *fabric.Fabric) {
			if _, err := rel.New(fab, rel.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		fab, err := fabric.New(sim.NewEngine(), 2, fabric.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		c.build(fab)
		if !registered(fab.Metrics(), c.layer) {
			t.Errorf("standalone %s registered nothing in its fabric's registry", c.layer)
		}
	}
}
