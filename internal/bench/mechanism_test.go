package bench

import (
	"reflect"
	"testing"

	"amtlci/internal/core/stack"
	"amtlci/internal/parsec"
)

// TestMechanisms runs every mechanism-table row and both backends' default
// point once, and checks each row's change in time-to-solution against its
// expected direction. Virtual time is deterministic, so every Δ is exact.
// Each row must also change its backend's defaults: a neutral row whose
// mutation set nothing would otherwise pass unnoticed.
func TestMechanisms(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("the mechanism table runs scaled HiCMA points")
	}
	for _, m := range mechanisms {
		o := mechanismOpts(m.backend)
		so, cfg := stack.DefaultOptions(m.backend, o.Nodes), parsec.DefaultConfig(WorkersFor(m.backend, o.Nodes))
		mso, mcfg := so, cfg
		m.mutate(&mso, &mcfg)
		if reflect.DeepEqual(so, mso) && reflect.DeepEqual(cfg, mcfg) {
			t.Errorf("%s: mutation leaves the defaults unchanged", m.name)
		}
	}

	backends := []stack.Backend{stack.LCI, stack.MPI}
	n := len(backends) + len(mechanisms)
	tts := Sweep(SweepWorkers(0, n), n, func(i int) float64 {
		if i < len(backends) {
			r, _ := hicmaRun(mechanismOpts(backends[i]), 0, nil)
			return r.TimeToSolution
		}
		m := mechanisms[i-len(backends)]
		r, _ := hicmaRun(mechanismOpts(m.backend), 0, m.mutate)
		return r.TimeToSolution
	})
	base := map[stack.Backend]float64{}
	for i, b := range backends {
		base[b] = tts[i]
		t.Logf("%-24s %-7v %.6f s", "default", b, tts[i])
	}
	for i, m := range mechanisms {
		got := tts[len(backends)+i]
		delta := got/base[m.backend] - 1
		t.Logf("%-24s %-7v %.6f s  Δ %+.3f%%  %v", m.name, m.backend, got, 100*delta, directionOf(delta))
		if d := directionOf(delta); d != m.expect {
			t.Errorf("%s (%s): Δ %+.3f%% is %v, want %v", m.name, m.section, 100*delta, d, m.expect)
		}
	}
}
