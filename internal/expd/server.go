package expd

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"amtlci/internal/bench"
)

// Options configures a Server.
type Options struct {
	// Dir is the state directory: the result cache lives in Dir/cache and
	// the job checkpoint in Dir/jobs.json.
	Dir string
	// Workers bounds the sweep worker pool; <=0 selects GOMAXPROCS.
	Workers int
	// CacheMax bounds the result cache to this many point entries with LRU
	// eviction; <=0 leaves it unbounded.
	CacheMax int
}

// Server is the experiment service: it accepts specs, expands them to
// points, runs one job at a time on a bounded worker pool (points of the
// active job fan out across the pool; further jobs queue FIFO), caches
// every point result by content address, and checkpoints the job table so a
// restart resumes interrupted sweeps.
type Server struct {
	opts  Options
	cache *Cache
	met   *serviceMetrics

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // submission order, for listing and checkpointing
	queue   []*Job   // FIFO of queued jobs
	subs    map[string]map[chan Event]bool
	closing bool

	wake chan struct{} // kicks the dispatcher when work arrives
	stop chan struct{} // closed by Close
	idle chan struct{} // closed when the dispatcher exits
}

// NewServer opens the state directory, replays the checkpoint (re-queuing
// any job that was queued or running when the previous incarnation died,
// and failing any whose spec no longer canonicalizes), and starts the
// dispatcher.
func NewServer(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	cache, err := OpenCacheBounded(filepath.Join(opts.Dir, "cache"), opts.CacheMax)
	if err != nil {
		return nil, err
	}
	met := newServiceMetrics()
	met.trackEvictions(cache)
	s := &Server{
		opts:  opts,
		cache: cache,
		met:   met,
		jobs:  make(map[string]*Job),
		subs:  make(map[string]map[chan Event]bool),
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		idle:  make(chan struct{}),
	}
	saved, err := loadCheckpoint(s.checkpointPath())
	if err != nil {
		return nil, err
	}
	for _, cj := range saved {
		job := &Job{ID: cj.ID, Spec: cj.Spec, state: cj.State, errMsg: cj.Error}
		if spec, err := cj.Spec.Canonical(); err != nil {
			// A spec this build no longer accepts (a removed kind, say) has
			// no points to run: it fails with the reason instead of
			// finishing with nothing computed.
			job.state, job.errMsg = StateFailed, err.Error()
		} else {
			job.Spec, job.Points = spec, spec.Points()
		}
		if job.state == StateDone {
			// Trust-but-verify: a done job whose point results were evicted
			// from the cache is demoted and re-run (cache hits cover
			// whatever survived).
			job.done = len(job.Points)
			job.cached = len(job.Points)
			for _, p := range job.Points {
				if !s.cache.Has(p.Hash()) {
					job.state = StateQueued
					job.done, job.cached = 0, 0
					break
				}
			}
		}
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		if job.state == StateQueued {
			s.queue = append(s.queue, job)
			s.met.queue(1)
		}
	}
	// Read the queue before the dispatcher exists: it pops under s.mu.
	resumed := len(s.queue) > 0
	go s.dispatch()
	if resumed {
		s.kick()
	}
	return s, nil
}

// Cache exposes the server's result cache (tests and tooling).
func (s *Server) Cache() *Cache { return s.cache }

func (s *Server) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Submit decodes, canonicalizes, and enqueues a spec. If a job with the
// same content address already exists, its current status is returned with
// fresh=false and nothing is enqueued.
func (s *Server) Submit(raw []byte) (st JobStatus, fresh bool, err error) {
	spec, err := DecodeSpec(raw)
	if err != nil {
		return JobStatus{}, false, err
	}
	id := spec.Hash()
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		st := j.statusLocked()
		s.mu.Unlock()
		return st, false, nil
	}
	if s.closing {
		s.mu.Unlock()
		return JobStatus{}, false, errors.New("expd: server is shutting down")
	}
	job := &Job{ID: id, Spec: spec, Points: spec.Points(), state: StateQueued}
	s.jobs[id] = job
	s.order = append(s.order, id)
	s.queue = append(s.queue, job)
	st = job.statusLocked()
	s.mu.Unlock()

	s.met.submitted()
	s.met.queue(1)
	s.persist()
	s.kick()
	return st, true, nil
}

// Resolve maps an exact ID or a unique prefix (>=6 hex chars) to a job ID.
func (s *Server) Resolve(id string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; ok {
		return id, nil
	}
	if len(id) < 6 {
		return "", fmt.Errorf("expd: no job %q (prefixes need at least 6 characters)", id)
	}
	var match string
	for jid := range s.jobs {
		if strings.HasPrefix(jid, id) {
			if match != "" {
				return "", fmt.Errorf("expd: job prefix %q is ambiguous", id)
			}
			match = jid
		}
	}
	if match == "" {
		return "", fmt.Errorf("expd: no job %q", id)
	}
	return match, nil
}

// Status returns a job's current status.
func (s *Server) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("expd: no job %q", id)
	}
	return j.statusLocked(), nil
}

// List returns every job's status in submission order.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].statusLocked())
	}
	return out
}

// Cancel stops a queued or running job. Cancelling a terminal job is a
// no-op returning its status.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("expd: no job %q", id)
	}
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.userCancelled = true
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		st := j.statusLocked()
		s.mu.Unlock()
		s.met.queue(-1)
		s.met.jobDone(StateCancelled)
		s.persist()
		s.publish(Event{Type: "state", Job: j.ID, State: StateCancelled, Total: st.Points, Done: st.Done})
		s.closeSubs(j.ID)
		return st, nil
	case StateRunning:
		j.userCancelled = true
		cancel := j.cancel
		st := j.statusLocked()
		s.mu.Unlock()
		if cancel != nil {
			cancel() // the runner finishes the transition
		}
		return st, nil
	default:
		st := j.statusLocked()
		s.mu.Unlock()
		return st, nil
	}
}

// Result assembles a done job's sweep from the cache. Every point of a done
// job is cached by construction, so the assembled bytes are identical
// whether the job simulated or was served warm.
func (s *Server) Result(id string) (Spec, []Point, []PointResult, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Spec{}, nil, nil, fmt.Errorf("expd: no job %q", id)
	}
	state := j.state
	spec, pts := j.Spec, j.Points
	s.mu.Unlock()
	if state != StateDone {
		return Spec{}, nil, nil, fmt.Errorf("expd: job %s is %s, not done", id[:12], state)
	}
	results := make([]PointResult, len(pts))
	for i, p := range pts {
		r, ok := s.cache.GetResult(p.Hash())
		if !ok {
			return Spec{}, nil, nil, fmt.Errorf("expd: point %d of job %s missing from cache", i, id[:12])
		}
		results[i] = r
	}
	return spec, pts, results, nil
}

// Point returns one fully-resolved point of a job (the trace endpoint
// re-simulates it under an observer).
func (s *Server) Point(id string, i int) (Point, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Point{}, fmt.Errorf("expd: no job %q", id)
	}
	if i < 0 || i >= len(j.Points) {
		return Point{}, fmt.Errorf("expd: job %s has %d points, no index %d", id[:12], len(j.Points), i)
	}
	return j.Points[i], nil
}

// Subscribe attaches a progress listener to a job. The returned channel
// closes when the job reaches a terminal state (immediately, if it already
// has); call off to detach early.
func (s *Server) Subscribe(id string) (ch <-chan Event, off func(), st JobStatus, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, JobStatus{}, fmt.Errorf("expd: no job %q", id)
	}
	st = j.statusLocked()
	c := make(chan Event, 256)
	if terminal(j.state) {
		close(c)
		return c, func() {}, st, nil
	}
	if s.subs[id] == nil {
		s.subs[id] = make(map[chan Event]bool)
	}
	s.subs[id][c] = true
	off = func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if set, ok := s.subs[id]; ok && set[c] {
			delete(set, c)
			close(c)
		}
	}
	return c, off, st, nil
}

// publish fans an event out to a job's subscribers, dropping for slow ones
// (the stream is advisory; status is the source of truth).
func (s *Server) publish(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.subs[ev.Job] {
		select {
		case c <- ev:
		default:
		}
	}
}

func (s *Server) closeSubs(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.subs[id] {
		close(c)
	}
	delete(s.subs, id)
}

// MetricsTable snapshots the service metrics registry as a bench table.
func (s *Server) MetricsTable() *bench.Table { return s.met.table() }

// dispatch is the job scheduler: one job runs at a time, its points fanned
// out over the worker pool, so concurrent submissions serialize instead of
// oversubscribing the simulator.
func (s *Server) dispatch() {
	defer close(s.idle)
	for {
		s.mu.Lock()
		var job *Job
		if !s.closing && len(s.queue) > 0 {
			job = s.queue[0]
			s.queue = s.queue[1:]
		}
		closing := s.closing
		s.mu.Unlock()
		if closing {
			return
		}
		if job == nil {
			select {
			case <-s.wake:
				continue
			case <-s.stop:
				return
			}
		}
		s.met.queue(-1)
		s.run(job)
	}
}

// run executes one job to a terminal state (or back to queued on shutdown).
func (s *Server) run(job *Job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-s.stop:
			cancel()
		case <-stopWatch:
		}
	}()
	defer close(stopWatch)

	s.mu.Lock()
	if job.state != StateQueued { // cancelled while waiting
		s.mu.Unlock()
		return
	}
	job.state = StateRunning
	job.cancel = cancel
	job.done, job.cached = 0, 0
	total := len(job.Points)
	s.mu.Unlock()
	s.persist()
	s.publish(Event{Type: "state", Job: job.ID, State: StateRunning, Total: total})

	_, err := EvalPoints(ctx, s.opts.Workers, job.Points, s.cache, EvalHooks{
		Start: func(i int) { s.met.pointStart() },
		Done: func(i int, r PointResult, cached bool, perr error, elapsed time.Duration) {
			s.met.pointEnd()
			if perr == nil {
				if cached {
					s.met.hit()
				} else {
					s.met.executed(elapsed)
				}
			}
			s.mu.Lock()
			job.done++
			if cached {
				job.cached++
			}
			done := job.done
			s.mu.Unlock()
			ev := Event{Type: "point", Job: job.ID, Index: i, Total: total,
				Done: done, Cached: cached, ElapsedUS: elapsed.Microseconds()}
			if perr != nil {
				ev.Error = perr.Error()
			}
			s.publish(ev)
		},
	})

	s.mu.Lock()
	job.cancel = nil
	switch {
	case errors.Is(err, context.Canceled):
		if job.userCancelled {
			job.state = StateCancelled
		} else {
			// Shutdown: back to queued so the checkpoint resumes it.
			job.state = StateQueued
		}
	case err != nil:
		job.state = StateFailed
		job.errMsg = err.Error()
	default:
		job.state = StateDone
	}
	st := job.statusLocked()
	s.mu.Unlock()

	if terminal(st.State) {
		s.met.jobDone(st.State)
	}
	s.persist()
	s.publish(Event{Type: "state", Job: job.ID, State: st.State, Total: total, Done: st.Done, Error: st.Error})
	if terminal(st.State) {
		s.closeSubs(job.ID)
	}
}

// Close drains the server: the active job is interrupted (its completed
// points are already cached and its checkpoint state reverts to queued, so
// a restart resumes it), the dispatcher exits, and the final checkpoint is
// written.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		<-s.idle
		return
	}
	s.closing = true
	s.mu.Unlock()
	close(s.stop)
	<-s.idle
	s.persist()
}
