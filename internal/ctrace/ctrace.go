// Package ctrace records a parsec execution as a Chrome trace (the JSON
// array format read by chrome://tracing and ui.perfetto.dev): one duration
// event per task execution, instant events for GET DATA requests, data
// arrivals, and ACTIVATE messages, and counter tracks sampled from the
// runtime-wide metrics registry. Record is the one recording sequence;
// bench.HiCMATrace runs it on a HiCMA point's own build, which is what
// cmd/experiments -trace writes.
package ctrace

import (
	"encoding/json"
	"fmt"
	"io"

	"amtlci/internal/metrics"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
)

// Event is one Chrome-trace entry (the JSON array format).
type Event struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// recorder implements parsec.Observer by buffering trace events.
type recorder struct {
	parsec.NopObserver
	events []Event
	starts map[[3]int64]sim.Time // (rank, worker, packed task) -> start
	names  []string              // class names

	// Anomaly counters, reported once at exit instead of dropped silently.
	unknownClass int // TaskEnd with a class index outside the name table
	unmatchedEnd int // TaskEnd with no recorded TaskStart
}

// newRecorder returns a recorder naming task classes after names (index ==
// parsec class index); tasks beyond the table keep a numeric label.
func newRecorder(names []string) *recorder {
	return &recorder{starts: make(map[[3]int64]sim.Time), names: names}
}

func key(rank, worker int, t parsec.TaskID) [3]int64 {
	return [3]int64{int64(rank)<<32 | int64(worker), int64(t.Class), t.Index}
}

// TaskStart records the start timestamp of one task execution.
func (r *recorder) TaskStart(rank, worker int, t parsec.TaskID, at sim.Time) {
	r.starts[key(rank, worker, t)] = at
}

// TaskEnd closes the matching TaskStart into one duration event.
func (r *recorder) TaskEnd(rank, worker int, t parsec.TaskID, at sim.Time) {
	k := key(rank, worker, t)
	start, ok := r.starts[k]
	if !ok {
		r.unmatchedEnd++
		return
	}
	delete(r.starts, k)
	name := fmt.Sprintf("c%d[%d]", t.Class, t.Index)
	if int(t.Class) < len(r.names) {
		name = fmt.Sprintf("%s[%d]", r.names[t.Class], t.Index)
	} else {
		r.unknownClass++
	}
	r.events = append(r.events, Event{
		Name: name, Phase: "X",
		TS: float64(start) / 1e6, Dur: float64(at-start) / 1e6,
		PID: rank, TID: worker + 1,
	})
}

// FetchStart marks a GET DATA request leaving rank.
func (r *recorder) FetchStart(rank int, p parsec.TaskID, flow int32, size int64, at sim.Time) {
	r.events = append(r.events, Event{
		Name: "GET DATA", Phase: "i", TS: float64(at) / 1e6, PID: rank, TID: 0,
		Args: map[string]any{"producer": p.String(), "bytes": size},
	})
}

// DataArrived marks a tile payload landing on rank.
func (r *recorder) DataArrived(rank int, p parsec.TaskID, flow int32, size int64, at sim.Time) {
	r.events = append(r.events, Event{
		Name: "data arrived", Phase: "i", TS: float64(at) / 1e6, PID: rank, TID: 0,
		Args: map[string]any{"producer": p.String(), "bytes": size},
	})
}

// ActivateSent marks an ACTIVATE message leaving rank.
func (r *recorder) ActivateSent(rank, dest, entries int, at sim.Time) {
	r.events = append(r.events, Event{
		Name: "ACTIVATE", Phase: "i", TS: float64(at) / 1e6, PID: rank, TID: 0,
		Args: map[string]any{"dest": dest, "entries": entries},
	})
}

// Trace is one recorded execution.
type Trace struct {
	Elapsed sim.Duration // the run's virtual makespan
	// Events holds the task and message events, then Counters counter
	// events sampled from the metrics registry.
	Events   []Event
	Counters int
	// Anomaly counts, both zero on a clean run: TaskEnds whose class index
	// is outside pool's class table, and TaskEnds without a TaskStart.
	UnknownClass, UnmatchedEnd int
}

// samplePeriod is the virtual-time period of the counter tracks.
const samplePeriod = 100 * sim.Microsecond

// Record runs rt to completion with a recorder attached, naming task
// classes after pool's, and returns its trace. A metrics.Sampler reads reg
// every samplePeriod of virtual time on eng, and its tracks become the
// trace's counter events. The sampler stops at the termination
// announcement, so its ticks never outlast the run's own events and
// Elapsed is the makespan the untraced run reports.
func Record(rt *parsec.Runtime, pool parsec.Taskpool, eng *sim.Engine, reg *metrics.Registry) (Trace, error) {
	var names []string
	for _, c := range pool.Classes() {
		names = append(names, c.Name)
	}
	rec := newRecorder(names)
	rt.SetObserver(rec)
	smp := metrics.NewSampler(eng, reg, samplePeriod)
	smp.Start()
	rt.OnTerminate(smp.Stop)
	elapsed, err := rt.Run()
	if err != nil {
		return Trace{}, err
	}
	smp.Flush()
	ce := counterEvents(smp.Tracks())
	return Trace{Elapsed: elapsed, Events: append(rec.events, ce...), Counters: len(ce),
		UnknownClass: rec.unknownClass, UnmatchedEnd: rec.unmatchedEnd}, nil
}

// counterEvents converts sampled metric tracks into Perfetto counter ("C")
// events. Runs of identical values are collapsed to their endpoints, so
// flat tracks cost almost nothing in the output.
func counterEvents(tracks []metrics.Track) []Event {
	var out []Event
	for _, tr := range tracks {
		name := tr.Desc.Layer + "/" + tr.Desc.Name
		if tr.Rate {
			name += " (1/s)"
		}
		pid := tr.Desc.Rank
		if pid == metrics.StackRank {
			pid = 0
			name += " [stack]"
		}
		prev := 0.0
		for i, smp := range tr.Samples {
			last := i == len(tr.Samples)-1
			if i > 0 && smp.V == prev && !last {
				continue
			}
			prev = smp.V
			out = append(out, Event{
				Name: name, Phase: "C", TS: float64(smp.At) / 1e6, PID: pid,
				Args: map[string]any{"value": smp.V},
			})
		}
	}
	return out
}

// Write encodes events as the Chrome-trace JSON array.
func Write(w io.Writer, events []Event) error {
	return json.NewEncoder(w).Encode(events)
}
