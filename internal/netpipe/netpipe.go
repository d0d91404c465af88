// Package netpipe reimplements the NetPIPE ping-pong benchmark [29] that
// Figure 2a uses as the raw-network baseline: a two-node ping-pong directly
// on the fabric, with only minimal software overhead per message, reporting
// half-round-trip bandwidth per block size.
package netpipe

import (
	"amtlci/internal/fabric"
	"amtlci/internal/sim"
)

// Config parameterizes the benchmark.
type Config struct {
	Fabric fabric.Config
	// Overhead is the per-message software cost at each end (NetPIPE's thin
	// TCP/verbs layer).
	Overhead sim.Duration
}

// reps is the number of round trips measured per block size.
const reps = 16

// DefaultConfig uses the repository's calibrated fabric and a thin software
// layer.
func DefaultConfig() Config {
	fc := fabric.DefaultConfig()
	fc.Jitter = 0
	return Config{Fabric: fc, Overhead: 300 * sim.Nanosecond}
}

// Bandwidth returns the NetPIPE bandwidth in Gbit/s for the given block
// size: size / (RTT/2), averaged over reps round trips.
func Bandwidth(cfg Config, size int64) float64 {
	eng := sim.NewEngine()
	fab, err := fabric.New(eng, 2, cfg.Fabric)
	if err != nil {
		panic(err)
	}
	cpu := [2]*sim.Proc{sim.NewProc(eng), sim.NewProc(eng)}

	remaining := reps
	var finish sim.Time
	var bounce func(at int)
	bounce = func(at int) {
		// The arrival is processed, then the reply (or termination).
		cpu[at].Submit(cfg.Overhead, func() {
			if at == 0 {
				remaining--
				if remaining == 0 {
					finish = eng.Now()
					return
				}
			}
			fab.Send(&fabric.Message{Src: at, Dst: 1 - at, Size: size})
		})
	}
	fab.SetHandler(0, func(m *fabric.Message) { bounce(0) })
	fab.SetHandler(1, func(m *fabric.Message) { bounce(1) })

	// Kick off: rank 0 sends the first block.
	cpu[0].Submit(cfg.Overhead, func() {
		fab.Send(&fabric.Message{Src: 0, Dst: 1, Size: size})
	})
	eng.Run()

	// Each rep is a full round trip carrying size bytes each way.
	halfTrips := float64(2 * reps)
	seconds := sim.Duration(finish).Seconds() / halfTrips
	return float64(size) * 8 / seconds / 1e9
}
