package parsec

import (
	"amtlci/internal/sim"
)

// Observer receives runtime events for tracing and tooling (internal/ctrace
// records them as a Chrome trace for cmd/experiments -trace). All callbacks
// run synchronously on the simulation goroutine at the event's virtual
// time, which is why an observer needs a serial domain (SetObserver).
// Implementations must be cheap and must not call back into the runtime.
type Observer interface {
	// TaskStart fires when a worker begins executing t; TaskEnd when its
	// completion bookkeeping is done.
	TaskStart(rank, worker int, t TaskID, at sim.Time)
	TaskEnd(rank, worker int, t TaskID, at sim.Time)
	// FetchStart fires when a rank sends GET DATA for a flow; DataArrived
	// when the flow's payload lands (put completion).
	FetchStart(rank int, producer TaskID, flow int32, size int64, at sim.Time)
	DataArrived(rank int, producer TaskID, flow int32, size int64, at sim.Time)
	// ActivateSent fires per ACTIVATE message (after aggregation), with the
	// number of activation entries it carries.
	ActivateSent(rank, dest, entries int, at sim.Time)
}

// NopObserver is an embeddable no-op implementation.
type NopObserver struct{}

// TaskStart implements Observer.
func (NopObserver) TaskStart(int, int, TaskID, sim.Time) {}

// TaskEnd implements Observer.
func (NopObserver) TaskEnd(int, int, TaskID, sim.Time) {}

// FetchStart implements Observer.
func (NopObserver) FetchStart(int, TaskID, int32, int64, sim.Time) {}

// DataArrived implements Observer.
func (NopObserver) DataArrived(int, TaskID, int32, int64, sim.Time) {}

// ActivateSent implements Observer.
func (NopObserver) ActivateSent(int, int, int, sim.Time) {}

// SetObserver installs an observer; nil removes it. Install before Run. An
// observer requires a single-shard domain: on a sharded one its callbacks
// would fire concurrently from every shard's goroutine.
func (rt *Runtime) SetObserver(o Observer) {
	if o != nil && rt.dom.Shards() > 1 {
		panic("parsec: an observer requires a single-shard domain")
	}
	rt.obs = o
}
