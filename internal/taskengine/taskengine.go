// Package taskengine is a lightweight tasking framework in the spirit of
// Argobots, which the HDF5 asynchronous VOL connector uses for its
// background threads. An Engine owns execution streams; each Stream is a
// single virtual-clock process draining a FIFO of tasks. Tasks may
// declare dependencies on other tasks (even across streams) and expose a
// future-like Wait.
//
// The async VOL connector (internal/asyncvol) creates one stream per
// simulated MPI process, matching vol-async's one-background-thread-per-
// process design.
package taskengine

import (
	"fmt"
	"sync"

	"asyncio/internal/critpath"
	"asyncio/internal/metrics"
	"asyncio/internal/vclock"
)

// Engine creates and tracks streams on one clock.
type Engine struct {
	clk *vclock.Clock

	mu      sync.Mutex
	streams []*Stream

	mTasks       *metrics.Counter
	mTaskSeconds *metrics.Histogram
	mQueued      *metrics.Gauge

	critRec *critpath.Recorder
}

// New returns an Engine on clk.
func New(clk *vclock.Clock) *Engine {
	return &Engine{clk: clk}
}

// Clock returns the engine's clock.
func (e *Engine) Clock() *vclock.Clock { return e.clk }

// SetMetrics instruments the engine on m: "taskengine.queued" tracks
// tasks waiting in stream FIFOs, "taskengine.tasks_completed" and
// "taskengine.task_seconds" record executed tasks. Idempotent (the
// first non-nil registry wins), so every rank's setup path may call it
// with the shared registry.
func (e *Engine) SetMetrics(m *metrics.Registry) {
	if m == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mTasks != nil {
		return
	}
	e.mTasks = m.Counter("taskengine.tasks_completed")
	e.mTaskSeconds = m.Histogram("taskengine.task_seconds")
	e.mQueued = m.Gauge("taskengine.queued")
}

// instruments returns the engine's instruments (nil instruments no-op).
func (e *Engine) instruments() (*metrics.Counter, *metrics.Histogram, *metrics.Gauge) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mTasks, e.mTaskSeconds, e.mQueued
}

// SetCrit attaches the critical-path recorder: streams record their
// idle waits and dependency waits as causal edges. Idempotent (first
// non-nil recorder wins), mirroring SetMetrics.
func (e *Engine) SetCrit(rec *critpath.Recorder) {
	if rec == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.critRec == nil {
		e.critRec = rec
	}
}

func (e *Engine) crit() *critpath.Recorder {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.critRec
}

// NewStream spawns an execution stream: a dedicated process that runs
// pushed tasks in FIFO order. The stream runs until Shutdown.
func (e *Engine) NewStream(name string) *Stream {
	clk := e.clk
	s := &Stream{
		e:      e,
		name:   name,
		wake:   vclock.NewEventNamed(clk, "taskengine:wake"),
		exited: vclock.NewEventNamed(clk, "taskengine:exited"),
	}
	e.mu.Lock()
	e.streams = append(e.streams, s)
	e.mu.Unlock()
	clk.Go("stream:"+name, s.run)
	return s
}

// ShutdownAll shuts down every stream created so far. It does not wait;
// use each stream's Join or clk.Wait.
func (e *Engine) ShutdownAll() {
	e.mu.Lock()
	streams := append([]*Stream(nil), e.streams...)
	e.mu.Unlock()
	for _, s := range streams {
		s.Shutdown()
	}
}

// Stream is a single background execution context.
type Stream struct {
	e    *Engine
	name string

	mu      sync.Mutex
	queue   []*Task
	wake    *vclock.Event
	stopped bool
	killErr error        // non-nil once killed; Push then fails tasks instead of panicking
	current *Task        // task being executed, failed on Kill so waiters unwind
	proc    *vclock.Proc // the stream's process, for Kill

	exited *vclock.Event
}

// Name returns the stream name.
func (s *Stream) Name() string { return s.name }

// Task is a unit of work with future semantics.
type Task struct {
	name string
	deps []*Task
	fn   func(p *vclock.Proc) error
	done *vclock.Event

	mu  sync.Mutex
	err error
}

// Push enqueues fn on the stream. The task starts only after every task
// in deps has completed. Pushing to a stopped stream panics — it is a
// lifecycle bug in the caller.
func (s *Stream) Push(name string, deps []*Task, fn func(p *vclock.Proc) error) *Task {
	t := &Task{
		name: name,
		deps: append([]*Task(nil), deps...),
		fn:   fn,
		done: vclock.NewEventNamed(s.e.clk, "taskengine:done"),
	}
	s.mu.Lock()
	if s.stopped {
		killed := s.killErr
		s.mu.Unlock()
		if killed != nil {
			// A crashed process may still issue a few pushes before it
			// reaches its next blocking point and dies; its work simply
			// fails instead of tripping the lifecycle panic.
			t.complete(killed)
			return t
		}
		panic(fmt.Sprintf("taskengine: Push(%q) on stopped stream %q", name, s.name))
	}
	s.queue = append(s.queue, t)
	wake := s.wake
	s.mu.Unlock()
	_, _, queued := s.e.instruments()
	queued.Add(1)
	wake.Fire()
	return t
}

// Shutdown asks the stream to exit after draining its queue. Idempotent.
func (s *Stream) Shutdown() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	wake := s.wake
	s.mu.Unlock()
	wake.Fire()
}

// Kill terminates the stream as by a crash: the background process dies
// with a vclock.Killed panic at its next blocking point, and every
// queued task — plus the one in flight, if any — completes with reason
// as its error, so drain barriers and event-set waiters unwind instead
// of hanging on tasks that will never run. Idempotent; a subsequent
// Push fails its task with reason instead of panicking.
func (s *Stream) Kill(reason error) {
	s.mu.Lock()
	if s.killErr != nil {
		s.mu.Unlock()
		return
	}
	s.killErr = reason
	s.stopped = true
	queue := s.queue
	s.queue = nil
	cur := s.current
	s.current = nil
	proc := s.proc
	wake := s.wake
	s.mu.Unlock()
	if proc != nil {
		proc.Kill(reason)
	}
	if cur != nil {
		cur.complete(reason)
	}
	for _, t := range queue {
		t.complete(reason)
	}
	if n := len(queue); n > 0 {
		_, _, queued := s.e.instruments()
		queued.Add(-float64(n))
	}
	wake.Fire() // in case the proc had not started yet
}

// Join blocks p until the stream process has exited.
func (s *Stream) Join(p *vclock.Proc) { s.exited.Wait(p) }

// Pending returns the number of queued (not yet started) tasks.
func (s *Stream) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

func (s *Stream) run(p *vclock.Proc) {
	defer s.exited.Fire()
	s.mu.Lock()
	s.proc = p
	s.mu.Unlock()
	for {
		s.mu.Lock()
		if len(s.queue) == 0 {
			if s.stopped {
				s.mu.Unlock()
				return
			}
			// Re-arm the wake event (events are one-shot) and sleep
			// until more work arrives.
			s.wake = vclock.NewEventNamed(s.e.clk, "taskengine:wake")
			wake := s.wake
			s.mu.Unlock()
			idleStart := p.Now()
			wake.Wait(p)
			s.e.crit().Record(critpath.Edge{
				Track: p.Name(), Cause: critpath.QueueWait, Subsystem: "taskengine",
				Detail: "stream-idle", Start: idleStart, End: p.Now(),
			})
			continue
		}
		t := s.queue[0]
		s.queue = s.queue[1:]
		s.current = t
		s.mu.Unlock()
		tasks, seconds, queued := s.e.instruments()
		queued.Add(-1)
		if len(t.deps) > 0 {
			depStart := p.Now()
			for _, dep := range t.deps {
				dep.done.Wait(p)
			}
			s.e.crit().Record(critpath.Edge{
				Track: p.Name(), Cause: critpath.QueueWait, Subsystem: "taskengine",
				Detail: "task-dep", Start: depStart, End: p.Now(),
			})
		}
		start := p.Now()
		err := t.fn(p)
		tasks.Add(1)
		seconds.Observe((p.Now() - start).Seconds())
		t.complete(err)
		s.mu.Lock()
		s.current = nil
		s.mu.Unlock()
	}
}

// complete records the task's outcome (first writer wins — a kill that
// already failed the task keeps its reason) and wakes waiters.
func (t *Task) complete(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
	t.done.Fire()
}

// Wait blocks p until the task completes, returning the task's error.
func (t *Task) Wait(p *vclock.Proc) error {
	t.done.Wait(p)
	return t.Err()
}

// Done reports whether the task has completed.
func (t *Task) Done() bool { return t.done.Fired() }

// Err returns the task's error; nil until completion.
func (t *Task) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Name returns the task name.
func (t *Task) Name() string { return t.name }
