package bench

import (
	"amtlci/internal/core/stack"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
)

// The mechanism table: one row per switch that turns off, or moves the
// parameter of, one of the paper's design choices, measured as the change in
// HiCMA time-to-solution against the paper's defaults at mechanismOpts.
// EXPERIMENTS.md "Mechanism table" records what each row measures;
// TestMechanisms holds every row to its expected direction.

// direction is a row's expected effect on time-to-solution.
type direction int8

const (
	neutral direction = iota // |Δ| <= neutralBand
	slower
	faster
)

// neutralBand is the largest relative change in time-to-solution that still
// counts as neutral (0.1%).
const neutralBand = 0.001

func (d direction) String() string {
	switch d {
	case slower:
		return "slower"
	case faster:
		return "faster"
	}
	return "neutral"
}

// directionOf classifies a relative change in time-to-solution.
func directionOf(delta float64) direction {
	switch {
	case delta > neutralBand:
		return slower
	case delta < -neutralBand:
		return faster
	}
	return neutral
}

// mechanism is one row of the table: mutate edits the default stack options
// and runtime configuration of backend.
type mechanism struct {
	name    string
	section string
	backend stack.Backend
	mutate  func(*stack.Options, *parsec.Config)
	expect  direction
}

var mechanisms = []mechanism{
	{"transfer cap 8", "§4.2.2", stack.MPI, func(o *stack.Options, _ *parsec.Config) { o.MPICE.MaxTransfers = 8 }, slower},
	{"transfer cap 120", "§4.2.2", stack.MPI, func(o *stack.Options, _ *parsec.Config) { o.MPICE.MaxTransfers = 120 }, neutral},
	{"persistent receives 1", "§4.2.1", stack.MPI, func(o *stack.Options, _ *parsec.Config) { o.MPICE.PersistentPerTag = 1 }, faster},
	{"persistent receives 20", "§4.2.1", stack.MPI, func(o *stack.Options, _ *parsec.Config) { o.MPICE.PersistentPerTag = 20 }, slower},
	{"inline progress", "§5.3.1", stack.LCI, func(o *stack.Options, _ *parsec.Config) { o.LCICE.InlineProgress = true }, neutral},
	{"eager put off", "§5.3.3", stack.LCI, func(o *stack.Options, _ *parsec.Config) { o.LCICE.EagerPutMax = 0 }, neutral},
	{"floating threads", "§6.1.2", stack.LCI, func(o *stack.Options, _ *parsec.Config) {
		o.LCICE.CommWake, o.LCICE.ProgWake = 2*sim.Microsecond, 2*sim.Microsecond
	}, slower},
	{"MT ACTIVATE, LCI", "§6.4.3", stack.LCI, func(_ *stack.Options, c *parsec.Config) { c.MTActivate = true }, neutral},
	{"MT ACTIVATE, MPI", "§6.4.3", stack.MPI, func(_ *stack.Options, c *parsec.Config) { c.MTActivate = true }, neutral},
}

// mechanismOpts is the point every row is measured at: a quarter of the
// paper's matrix (N=90,000) on 4 nodes at nb=1200.
func mechanismOpts(b stack.Backend) HiCMAOpts {
	o := DefaultHiCMAOpts(b, 1200, 4)
	o.N = 90000
	return o
}
