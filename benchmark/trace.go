package main

import (
	"time"

	"amtlci/internal/buf"
	"amtlci/internal/core"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
)

// Boundary tracing. The stack exposes exactly two interfaces between its
// upper layers — parsec.Taskpool (runtime -> application graph) and
// core.Engine (runtime <-> communication engine) — so a decorator on each
// sees every crossing without touching a file outside this directory. A span
// is recorded in memory per crossing and folded after the run: a layer's self
// time is its spans' duration minus the time their child spans cover.
//
// A tracer is single-goroutine by construction: traced reps always run on the
// serial engine (the sharded workload traces its serial twin).

// spanName identifies what a span measures.
type spanName uint8

const (
	// Taskpool calls (parsec -> application graph).
	poolInputs spanName = iota
	poolSuccessors
	poolRoots
	poolExecute
	poolMakeCopy
	// Communication-engine down-calls (parsec -> CE).
	ceSendAM
	ceSendAMMT
	ceMemReg
	ceMemDereg
	cePut
	ceSubmit
	// Communication-engine up-calls (CE -> parsec, on the comm thread).
	upAM
	upPutLocal
	upSubmit
	numSpanNames
)

// spanLayer groups span names into the three boundaries that are reported.
type spanLayer uint8

const (
	layerPool spanLayer = iota
	layerDown
	layerUp
	numSpanLayers
)

func (n spanName) layer() spanLayer {
	switch {
	case n <= poolMakeCopy:
		return layerPool
	case n <= ceSubmit:
		return layerDown
	}
	return layerUp
}

// span is one boundary crossing. Times are nanoseconds since the tracer's
// epoch; parent indexes the enclosing span, -1 at top level. The struct holds
// no pointers, so the garbage collector never scans the span log.
type span struct {
	start, end int64
	parent     int32
	name       spanName
}

type tracer struct {
	epoch time.Time
	spans []span
	cur   int32 // innermost open span, -1 when none
	// cheap counts calls too small to time without the clock dominating
	// (RankOf, Cost, Priority, LocalTasks): counted, never spanned.
	cheap int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), cur: -1, spans: make([]span, 0, 1<<20)}
}

func (t *tracer) begin(n spanName) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{start: int64(time.Since(t.epoch)), parent: t.cur, name: n})
	t.cur = i
	return i
}

func (t *tracer) end(i int32) {
	s := &t.spans[i]
	s.end = int64(time.Since(t.epoch))
	t.cur = s.parent
}

// spanTotals is a folded span log: per layer, self time and call count.
type spanTotals struct {
	selfNs [numSpanLayers]int64
	calls  [numSpanLayers]int64
}

func (a *spanTotals) add(b spanTotals) {
	for l := range a.selfNs {
		a.selfNs[l] += b.selfNs[l]
		a.calls[l] += b.calls[l]
	}
}

// fold attributes every span's duration to its own layer and subtracts it
// from its parent's, which leaves each layer with its self time.
func (t *tracer) fold() spanTotals {
	var out spanTotals
	for _, s := range t.spans {
		d := s.end - s.start
		l := s.name.layer()
		out.selfNs[l] += d
		out.calls[l]++
		if s.parent >= 0 {
			out.selfNs[t.spans[s.parent].name.layer()] -= d
		}
	}
	out.calls[layerPool] += t.cheap
	return out
}

// tracedPool decorates a Taskpool. Name and Classes pass through the
// embedded interface untouched.
type tracedPool struct {
	parsec.Taskpool
	tr *tracer
}

func (p tracedPool) RankOf(t parsec.TaskID) int {
	p.tr.cheap++
	return p.Taskpool.RankOf(t)
}

func (p tracedPool) Cost(t parsec.TaskID) sim.Duration {
	p.tr.cheap++
	return p.Taskpool.Cost(t)
}

func (p tracedPool) Priority(t parsec.TaskID) int64 {
	p.tr.cheap++
	return p.Taskpool.Priority(t)
}

func (p tracedPool) LocalTasks(rank int) int64 {
	p.tr.cheap++
	return p.Taskpool.LocalTasks(rank)
}

func (p tracedPool) Inputs(t parsec.TaskID, out []parsec.Dep) []parsec.Dep {
	s := p.tr.begin(poolInputs)
	out = p.Taskpool.Inputs(t, out)
	p.tr.end(s)
	return out
}

func (p tracedPool) Successors(t parsec.TaskID, flow int32, out []parsec.Dep) []parsec.Dep {
	s := p.tr.begin(poolSuccessors)
	out = p.Taskpool.Successors(t, flow, out)
	p.tr.end(s)
	return out
}

func (p tracedPool) Roots(rank int, emit func(parsec.TaskID)) {
	s := p.tr.begin(poolRoots)
	p.Taskpool.Roots(rank, emit)
	p.tr.end(s)
}

func (p tracedPool) Execute(t parsec.TaskID, inputs []parsec.DataRef) []parsec.DataRef {
	s := p.tr.begin(poolExecute)
	out := p.Taskpool.Execute(t, inputs)
	p.tr.end(s)
	return out
}

func (p tracedPool) MakeCopy(t parsec.TaskID, flow int32, size int64) parsec.DataRef {
	s := p.tr.begin(poolMakeCopy)
	ref := p.Taskpool.MakeCopy(t, flow, size)
	p.tr.end(s)
	return ref
}

// tracedEngine decorates a communication engine. Down-calls are spanned;
// every function the runtime hands the engine (AM callbacks, a put's local
// completion, Submit bodies) is wrapped so its execution is spanned as an
// up-call, and callbacks receive the decorator, so calls they make back into
// the engine nest under them. Rank, Size, Lookup, CommProc, OnError, Err and
// Stats pass through the embedded interface.
type tracedEngine struct {
	core.Engine
	tr *tracer
}

func (e *tracedEngine) TagReg(tag core.Tag, cb core.AMCallback, maxLen int64) {
	e.Engine.TagReg(tag, func(_ core.Engine, tag core.Tag, data []byte, src int) {
		s := e.tr.begin(upAM)
		cb(e, tag, data, src)
		e.tr.end(s)
	}, maxLen)
}

func (e *tracedEngine) SendAM(tag core.Tag, remote int, data []byte) {
	s := e.tr.begin(ceSendAM)
	e.Engine.SendAM(tag, remote, data)
	e.tr.end(s)
}

func (e *tracedEngine) SendAMMT(worker *sim.Proc, tag core.Tag, remote int, data []byte, done func()) {
	s := e.tr.begin(ceSendAMMT)
	e.Engine.SendAMMT(worker, tag, remote, data, done)
	e.tr.end(s)
}

func (e *tracedEngine) MemReg(b buf.Buf) core.MemHandle {
	s := e.tr.begin(ceMemReg)
	h := e.Engine.MemReg(b)
	e.tr.end(s)
	return h
}

func (e *tracedEngine) MemDereg(h core.MemHandle) {
	s := e.tr.begin(ceMemDereg)
	e.Engine.MemDereg(h)
	e.tr.end(s)
}

func (e *tracedEngine) Put(a core.PutArgs) {
	if cb := a.LocalCB; cb != nil {
		a.LocalCB = func() {
			s := e.tr.begin(upPutLocal)
			cb()
			e.tr.end(s)
		}
	}
	s := e.tr.begin(cePut)
	e.Engine.Put(a)
	e.tr.end(s)
}

func (e *tracedEngine) Submit(cost sim.Duration, fn func()) {
	if inner := fn; inner != nil {
		fn = func() {
			s := e.tr.begin(upSubmit)
			inner()
			e.tr.end(s)
		}
	}
	s := e.tr.begin(ceSubmit)
	e.Engine.Submit(cost, fn)
	e.tr.end(s)
}
