// Package stack assembles a complete simulated communication deployment —
// engine, fabric, message-passing library, and one communication engine per
// rank — for either backend. Every experiment, example, and test in this
// repository starts from a Stack.
package stack

import (
	"fmt"
	"strings"

	"amtlci/internal/core"
	"amtlci/internal/core/lcice"
	"amtlci/internal/core/mpice"
	"amtlci/internal/fabric"
	"amtlci/internal/lci"
	"amtlci/internal/metrics"
	"amtlci/internal/mpi"
	"amtlci/internal/rel"
	"amtlci/internal/sim"
)

// Backend selects the communication-engine implementation.
type Backend int

const (
	// MPI is the baseline backend of Section 4.2.
	MPI Backend = iota
	// LCI is the paper's contribution, Section 5.3.
	LCI
)

// String names the backend as the paper's figures do.
func (b Backend) String() string {
	switch b {
	case MPI:
		return "Open MPI"
	case LCI:
		return "LCI"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Backends lists both, in the order the paper's legends use.
var Backends = []Backend{LCI, MPI}

// ParseBackend maps a command-line flag value to a Backend. Accepted
// spellings are case-insensitive: "mpi", "openmpi" or "open-mpi" for the
// baseline, "lci" for the paper's engine. Anything else is an error, so a
// typo cannot silently select a backend.
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(s) {
	case "mpi", "openmpi", "open-mpi":
		return MPI, nil
	case "lci":
		return LCI, nil
	}
	return 0, fmt.Errorf("stack: unknown backend %q (want \"mpi\" or \"lci\")", s)
}

// Options configures a deployment. Build uses every sub-config as given, so
// start from DefaultOptions and change what differs: a zero Fabric fails
// fabric.Config.Validate.
type Options struct {
	Ranks   int
	Backend Backend
	Seed    uint64 // overrides the fabric noise seed when nonzero

	Fabric fabric.Config
	MPI    mpi.Config
	MPICE  mpice.Config
	LCI    lci.Config
	LCICE  lcice.Config

	// Faults, when non-nil, arms deterministic fault injection on the
	// fabric (chaos testing). Pair it with Rel — the communication
	// libraries assume a lossless wire.
	Faults *fabric.FaultConfig
	// Rel, when non-nil, interposes the reliable-delivery layer
	// (internal/rel) between the fabric and the communication library.
	// Zero-cost when absent: the libraries bind straight to the fabric.
	Rel *rel.Config

	// Shards, when > 1, runs the simulation on a sharded parallel domain
	// (sim.Parallel): ranks are partitioned into Shards contiguous blocks
	// advanced in parallel under a conservative round protocol whose
	// lookahead is the fabric's wire-latency floor (fabric.Lookahead). 0 or
	// 1 builds the serial engine. Crash-script fault injection requires the
	// serial engine (fabric.InstallFaults enforces this).
	Shards int
}

// DefaultOptions returns the paper-calibrated configuration for n ranks.
func DefaultOptions(b Backend, n int) Options {
	return Options{
		Ranks:   n,
		Backend: b,
		Fabric:  fabric.DefaultConfig(),
		MPI:     mpi.DefaultConfig(),
		MPICE:   mpice.DefaultConfig(),
		LCI:     lci.DefaultConfig(),
		LCICE:   lcice.DefaultConfig(),
	}
}

// Stack is one assembled deployment.
type Stack struct {
	// Dom is the simulation domain every layer schedules on: the serial
	// engine, or a sim.Parallel when Options.Shards > 1. Always non-nil.
	Dom sim.Domain
	// Eng is the serial engine, nil when the domain is sharded — code that
	// genuinely needs one engine must go through Dom.RankEngine and fail
	// loudly rather than silently serialize a sharded deployment.
	Eng     *sim.Engine
	Fab     *fabric.Fabric
	Backend Backend
	Engines []core.Engine

	// Net is what the communication library is bound to: the raw fabric,
	// or Rel when the reliability layer is interposed.
	Net fabric.Network
	// Rel is the reliability layer, nil unless Options.Rel was set.
	Rel *rel.Stack

	// Library handles, populated for the matching backend only (for
	// counter inspection in tests and experiments).
	MPIWorld   *mpi.World
	LCIRuntime *lci.Runtime

	// Metrics is the registry shared by every layer of this deployment: the
	// fabric's (Fab.Metrics()), which each layer above it registers in.
	Metrics *metrics.Registry
}

// Build assembles a deployment from o. Invalid options panic: every caller
// is a test, bench, or command-line tool for which a stack that cannot be
// built is a programming error.
func Build(o Options) *Stack {
	if o.Ranks <= 0 {
		panic("stack: Ranks must be positive")
	}
	fc := o.Fabric
	if o.Seed != 0 {
		fc.Seed = o.Seed
	}
	var dom sim.Domain
	var eng *sim.Engine
	if o.Shards > 1 {
		dom = sim.NewParallel(o.Ranks, o.Shards, fabric.Lookahead(fc))
	} else {
		eng = sim.NewEngine()
		dom = eng
	}
	fab, err := fabric.New(dom, o.Ranks, fc)
	if err != nil {
		panic(err)
	}
	if o.Faults != nil {
		if err := fab.InstallFaults(*o.Faults); err != nil {
			panic(err)
		}
	}
	s := &Stack{Dom: dom, Eng: eng, Fab: fab, Backend: o.Backend, Metrics: fab.Metrics()}
	var net fabric.Network = fab
	if o.Rel != nil {
		rl, err := rel.New(fab, *o.Rel)
		if err != nil {
			panic(err)
		}
		s.Rel = rl
		net = rl
	}
	s.Net = net
	s.Engines = make([]core.Engine, o.Ranks)
	switch o.Backend {
	case MPI:
		s.MPIWorld = mpi.NewWorld(dom, net, o.MPI)
		for r := 0; r < o.Ranks; r++ {
			s.Engines[r] = mpice.New(dom.RankEngine(r), s.MPIWorld, r, o.MPICE)
		}
	case LCI:
		s.LCIRuntime = lci.NewRuntime(dom, net, o.LCI)
		for r := 0; r < o.Ranks; r++ {
			s.Engines[r] = lcice.New(dom.RankEngine(r), s.LCIRuntime, r, o.LCICE)
		}
	default:
		panic(fmt.Sprintf("stack: unknown backend %d", o.Backend))
	}
	return s
}

// New is shorthand for Build(DefaultOptions(b, n)).
func New(b Backend, n int) *Stack { return Build(DefaultOptions(b, n)) }
