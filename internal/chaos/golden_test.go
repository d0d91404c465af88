package chaos

import (
	"math"
	"runtime"
	"testing"

	"amtlci/internal/core/stack"
)

// goldenRow pins one chaos run's outputs that are functions of the kernels'
// bits: tile ranks set the message sizes (hence the makespan, the message
// count and the checkpoint volume) and RelErr is the factor itself.
type goldenRow struct {
	makespanPs int64
	msgsSent   uint64
	ckptBytes  uint64
	relErrBits uint64
}

// chaosGolden was captured at the commit before internal/linalg and
// internal/tlr were restructured: per (backend, workload) the fault-free run
// and the run with rank 1 crashed at 40% of it under 2% faults (seed 7) with
// recovery armed. The kernels perform the same floating-point operations in
// the same order since, so every column is required to be unchanged.
var chaosGolden = map[string][2]goldenRow{
	"LCI/cholesky": {
		{275557098, 238, 0, 0x3ca0f8c745db48f9},
		{2762094458, 637, 21960, 0x3ca0f8c745db48f9},
	},
	"LCI/hicma": {
		{184190297, 139, 0, 0x3d931184cc8fa52f},
		{2587037960, 387, 189133, 0x3d931184cc8fa52f},
	},
	"Open MPI/cholesky": {
		{1062776215, 280, 0, 0x3ca0f8c745db48f9},
		{3590514018, 835, 22616, 0x3ca0f8c745db48f9},
	},
	"Open MPI/hicma": {
		{730358710, 169, 0, 0x3d931184cc8fa52f},
		{3360834130, 490, 189133, 0x3d931184cc8fa52f},
	},
}

func TestChaosGolden(t *testing.T) {
	for _, backend := range stack.Backends {
		for _, w := range Workloads {
			name := backend.String() + "/" + w.String()
			t.Run(name, func(t *testing.T) {
				base := Run(Opts{Backend: backend, Workload: w})
				crash := CrashSpec{Rank: 1, At: base.Makespan * 2 / 5}
				faulted := Run(Opts{
					Backend: backend, Workload: w, Crash: &crash, Recover: true,
					Faults: faultCfg(0.02, 7), Rel: relCfg(), TaskScale: 8,
				})
				want, ok := chaosGolden[name]
				if !ok {
					t.Fatalf("no golden rows for %q", name)
				}
				for i, r := range []Result{base, faulted} {
					if r.Err != nil || !r.Verified {
						t.Fatalf("run %d: verified=%v err=%v", i, r.Verified, r.Err)
					}
					got := goldenRow{
						makespanPs: int64(r.Makespan),
						msgsSent:   r.Metrics.Total("fabric", "msgs_sent"),
						relErrBits: math.Float64bits(r.RelErr),
					}
					if i == 1 {
						// Only the recovered run checkpoints.
						got.ckptBytes = r.Metrics.Total("recover", "ckpt_bytes")
					}
					if runtime.GOARCH != "amd64" {
						// Other targets may fuse multiply-adds; ranks (and so
						// the other columns) survive that, the last bits of
						// RelErr need not.
						got.relErrBits = want[i].relErrBits
					}
					if got != want[i] {
						t.Errorf("run %d: got %+v, want %+v", i, got, want[i])
					}
				}
			})
		}
	}
}
