// Package vclock implements a deterministic discrete-event virtual clock.
//
// Every concurrent entity in the simulation — MPI ranks, asynchronous I/O
// background streams, file-system completion machinery — runs as a Proc
// registered with a Clock. Virtual time only advances when every live Proc
// is blocked (sleeping, waiting on an Event, or waiting on a Timer), at
// which point the clock jumps to the earliest pending wakeup. This gives
// fully deterministic runs that simulate hours of machine time in
// milliseconds of wall time while preserving the real concurrency
// structure: overlap, blocking, and contention.
//
// The package deliberately mirrors the small set of primitives a
// discrete-event simulation needs: processes (Go/Proc), time
// (Now/Sleep), one-shot condition signalling (Event), and cancellable
// timers with callbacks (AfterFunc). Timer callbacks run inline in the
// scheduler loop between process runs, so a callback may freely use the
// full public API; time cannot advance underneath it.
//
// Each Proc runs as a coroutine (iter.Pull) and Clock.Wait is the one
// scheduler loop that drives them: it resumes the head of a FIFO run
// queue of procs, and when the queue is empty it advances to the next
// pending instant. A blocking operation (Sleep, Event.Wait) records what
// the proc waits for and yields back to the loop; it is resumed when a
// timer, an Event.Fire, a Kill or its spawn puts it on the run queue.
// At most one process of a Clock is ever running, so the engine needs no
// lock: Go, AfterFunc, Fire and Kill called from a process, a callback,
// or the host goroutine before Wait only queue or schedule work, and the
// run starts in Wait. Same-instant processes therefore interact with
// shared simulation state (message queues, caches, FIFO servers) in one
// canonical order — timer pops in (time, seq) order, then
// dynamically-triggered wakeups in the order the serialized execution
// produced them — regardless of GOMAXPROCS, async preemption, or
// host-machine load.
//
// The event engine is built for throughput: a coroutine switch costs
// about a fifth of a goroutine handoff through a channel; a finished
// proc's coroutine is reused for the next Go, and idle coroutines are
// shared between clocks through a capped process-wide free list; timer
// entries are pooled and recycled (generation-tagged so a stale Timer
// handle can never cancel or re-fire a recycled entry); same-instant
// wakeups are drained as a single batch; and cancellation removes the
// heap entry in O(log n) via its maintained index. Now() is lock-free.
//
// A panic inside a process (or a timer callback) comes out of Wait on
// the caller's goroutine with its original value, after Wait has
// stopped every other suspended coroutine of the clock. A deadlock
// likewise stops every blocked coroutine before Wait reports it, so
// neither leaves goroutines behind.
package vclock

import (
	"container/heap"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Clock is a discrete-event virtual clock. The zero value is not usable;
// construct with New.
type Clock struct {
	now    atomic.Int64 // current virtual time; atomic so Now is safe from any goroutine
	events atomic.Int64 // fired entries (proc wakeups + callbacks)
	queue  timerHeap
	seq    int64   // tiebreak for deterministic ordering of same-time entries
	alive  []*Proc // procs started and not yet finished, indexed by Proc.slot
	err    error   // set once the run deadlocked or panicked; the clock is poisoned

	// panicStack is the stack of a process that panicked, captured on
	// its coroutine before the panic is re-raised in Wait (which loses
	// the faulting frame), so the poisoned clock's error keeps it.
	panicStack []byte

	// runq is the FIFO run queue: procs ready to resume, in the order
	// their wakeups happened. runHead indexes the next one; the slice is
	// reset when drained so the backing array is reused.
	runq    []*Proc
	runHead int

	free      []*timerEntry             // recycled entries (the pool)
	cbScratch []func(now time.Duration) // batch buffer for same-instant callbacks
	idle      []*coro                   // coroutines of finished procs, ready for the next Go
	tearing   bool                      // stopping coroutines after a deadlock or panic

	// waitObs, when non-nil, observes every blocking interval (sleeps
	// and event waits). Set once via SetWaitObserver before the run.
	waitObs WaitObserver
}

// WaitObserver receives every blocking edge of the clock's processes:
// kind is "sleep" or "event", label the event's label (empty for
// sleeps and unlabeled events), start/end the blocked interval in
// virtual time. Implementations must be cheap — they run on every
// blocking operation. internal/critpath's Recorder implements this
// interface.
type WaitObserver interface {
	ObserveWait(proc, kind, label string, start, end time.Duration)
}

// SetWaitObserver installs o as the clock's blocking-edge observer.
// Must be called before the run starts.
func (c *Clock) SetWaitObserver(o WaitObserver) { c.waitObs = o }

// New returns a Clock set to virtual time zero.
func New() *Clock { return &Clock{} }

// blocking reasons, formatted lazily only for deadlock reports so the hot
// Sleep path never touches fmt.
type procState uint8

const (
	stateRunning procState = iota
	stateSleeping
	stateEventWait
)

// Proc is a process registered with a Clock. All blocking operations on
// the clock take the Proc so the scheduler can account for it.
type Proc struct {
	c       *Clock
	name    string
	fn      func(p *Proc) // body, cleared once started
	co      *coro         // the coroutine running the body; nil until first resumed
	slot    int           // index in c.alive
	stateAt time.Duration // wake deadline when sleeping, for deadlock reports

	// Kill support. pending is the sleep timer entry while blocked in
	// Sleep, waitingOn the event while blocked in Wait, so Kill can
	// dequeue a blocked victim; killErr is published before killed.
	pending   *timerEntry
	waitingOn *Event
	killErr   error
	killed    atomic.Bool
	state     procState
}

// Killed is the panic value a killed process unwinds with. Spawners that
// need to observe the death (an MPI rank wrapper recording a crash, a
// background stream failing its queue) recover it; a Killed panic that
// reaches the top of a process is absorbed by the clock, so an
// unobserved kill simply ends the process.
type Killed struct{ Reason error }

// Error makes the panic value usable as an error after recovery.
func (k Killed) Error() string {
	if k.Reason != nil {
		return "vclock: process killed: " + k.Reason.Error()
	}
	return "vclock: process killed"
}

// Kill marks p as killed. The victim unwinds with a Killed panic at its
// next blocking operation — immediately, at the current virtual instant,
// if it is already blocked in Sleep or Event.Wait (its pending wakeup is
// cancelled). Idempotent: only the first reason sticks. Kill may be
// called from another process, a timer callback, or the host goroutine
// before Wait; a process must not kill itself (panic with Killed
// directly instead).
func (p *Proc) Kill(reason error) {
	if p.killed.Load() {
		return
	}
	p.killErr = reason
	p.killed.Store(true)
	c := p.c
	if e := p.pending; e != nil {
		// Asleep: cancel the scheduled wakeup and queue it to die.
		heap.Remove(&c.queue, e.index)
		c.recycle(e)
		p.pending = nil
		c.runq = append(c.runq, p)
		return
	}
	if ev := p.waitingOn; ev != nil {
		// Blocked on an event: withdraw from the waiter list so the
		// event doesn't keep a dead proc, and queue it to die.
		p.waitingOn = nil
		ev.remove(p)
		c.runq = append(c.runq, p)
	}
	// Otherwise the proc is running or already queued to run; it dies
	// at its next blocking operation or when its queued wakeup resumes it.
}

// checkKilled panics with Killed if the proc has been killed.
func (p *Proc) checkKilled() {
	if p.killed.Load() {
		panic(Killed{p.killErr})
	}
}

// park suspends the calling process until the scheduler loop resumes
// it. A false yield means the clock is tearing down after a deadlock or
// a panic: unwind the process.
func (p *Proc) park() {
	if !p.co.yield(struct{}{}) {
		panic(teardown{})
	}
}

// teardown is the panic value that unwinds a suspended process whose
// coroutine was stopped. It is absorbed at the top of the process.
type teardown struct{}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Clock returns the clock the process belongs to.
func (p *Proc) Clock() *Clock { return p.c }

// Now returns the current virtual time. It is lock-free: time cannot
// advance while any process is running, so a running caller always sees
// a stable value.
func (c *Clock) Now() time.Duration {
	return time.Duration(c.now.Load())
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.c.Now() }

// Events returns the number of timer-queue entries fired so far — proc
// wakeups plus timer callbacks. It is the denominator for the
// events/second and ns/event throughput metrics the self-benchmark
// (internal/simbench) reports.
func (c *Clock) Events() int64 { return c.events.Load() }

// totalEvents accumulates fired entries across every Clock in the
// process, so throughput can be measured over code (figure generators)
// that builds clocks internally.
var totalEvents atomic.Int64

// TotalEvents returns the process-wide count of fired timer-queue
// entries across all clocks. Monotonic; meant for before/after deltas.
func TotalEvents() int64 { return totalEvents.Load() }

// Go spawns fn as a new process. It may be called from the host goroutine
// or from within another process. The process's first run is queued like
// any other wakeup, preserving the serialized execution order. Calls from
// the host never start the run — Wait does — so the host may spawn
// several processes and schedule timers before any of them runs.
func (c *Clock) Go(name string, fn func(p *Proc)) {
	if c.err != nil {
		panic("vclock: Go on dead clock: " + c.err.Error())
	}
	p := &Proc{c: c, name: name, fn: fn, slot: len(c.alive)}
	c.alive = append(c.alive, p)
	c.runq = append(c.runq, p)
}

// run executes the process body. A Killed panic that nobody recovered
// means the spawner does not care how the process ends, so it is
// absorbed; so is the teardown unwind, and anything a process does while
// its clock tears down. Any other panic propagates out of Wait, and its
// stack is kept for the clock's error.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case Killed, teardown:
				return
			}
			if p.c.tearing {
				return
			}
			p.c.panicStack = debug.Stack()
			panic(r)
		}
	}()
	fn := p.fn
	p.fn = nil
	p.checkKilled() // killed before first run: die without running fn
	fn(p)
}

// exit retires a finished process and returns its coroutine to the
// clock's free list.
func (c *Clock) exit(p *Proc) {
	last := len(c.alive) - 1
	c.alive[p.slot] = c.alive[last]
	c.alive[p.slot].slot = p.slot
	c.alive[last] = nil
	c.alive = c.alive[:last]
	c.idle = append(c.idle, p.co)
	p.co.p = nil
	p.co = nil
}

// Wait runs the simulation on the calling goroutine until every process
// has finished, so post-Wait reads of the clock see a quiescent
// simulation. It returns an error if the clock deadlocked. A panic in a
// process or a timer callback is re-raised here with its original value
// once every other process of the clock has been stopped; the clock's
// error, returned by later Waits, carries the faulting stack.
//
// Wait is the scheduler loop: it resumes the head of the run queue, which
// runs until its next blocking point, and advances time only when the
// queue is empty. The loop (instead of recursion) keeps long callback
// chains — e.g. a flow server rescheduling its completion timer for the
// whole run — at constant stack depth.
func (c *Clock) Wait() error {
	if c.err != nil {
		return c.err
	}
	defer func() {
		r := recover()
		if r != nil {
			stack := c.panicStack
			if stack == nil {
				// A timer callback panicked on this goroutine, whose
				// faulting frames are still below this deferred call.
				stack = debug.Stack()
			}
			c.err = fmt.Errorf("vclock: process panicked: %v\n%s", r, stack)
			c.teardown()
		}
		c.releaseIdle()
		if r != nil {
			panic(r)
		}
	}()
	for {
		if c.runHead < len(c.runq) {
			p := c.runq[c.runHead]
			c.runq[c.runHead] = nil
			c.runHead++
			if c.runHead == len(c.runq) {
				c.runq = c.runq[:0]
				c.runHead = 0
			}
			if p.co == nil {
				p.co = c.takeCoro()
				p.co.p = p
			}
			p.co.next()
			continue
		}
		if len(c.alive) == 0 {
			// The last process has exited: the run is over. Time never
			// advances past the final process, so timers still pending
			// (e.g. fault windows scheduled beyond the end of the run)
			// stay unfired and post-run reads of Now() are deterministic.
			return nil
		}
		if c.queue.Len() == 0 {
			// Every process is blocked and nothing is scheduled: the
			// simulation has deadlocked. Poison the clock and stop the
			// blocked coroutines so no goroutine is left behind.
			c.err = errors.New("vclock: deadlock: " + c.describeStuck())
			c.teardown()
			return c.err
		}
		c.advance()
	}
}

// advance jumps to the earliest pending instant and pops every entry
// scheduled there as one batch. The batch's sleepers join the run queue
// in (time, seq) order; then its callbacks run to completion, inline —
// so a callback killing a proc that wakes at this same instant publishes
// the kill before the victim resumes, and wakes a callback triggers
// queue behind the window's own sleepers.
func (c *Clock) advance() {
	t := c.queue[0].at
	c.now.Store(int64(t))
	cbs := c.cbScratch[:0]
	var fired int64
	for c.queue.Len() > 0 && c.queue[0].at == t {
		e := heap.Pop(&c.queue).(*timerEntry)
		fired++
		if p := e.proc; p != nil {
			p.pending = nil
			c.runq = append(c.runq, p)
		} else {
			cbs = append(cbs, e.fn)
		}
		c.recycle(e)
	}
	c.cbScratch = cbs
	c.events.Add(fired)
	totalEvents.Add(fired)
	for _, fn := range cbs {
		fn(t)
	}
}

// teardown stops the coroutine of every live process after a deadlock or
// a panic. Each suspended process unwinds from its blocking call; the
// run queue is dropped.
func (c *Clock) teardown() {
	c.tearing = true
	for _, p := range c.alive {
		if p.co != nil {
			p.co.stop()
		}
	}
	c.alive = nil
	c.runq = nil
	c.runHead = 0
	c.tearing = false
}

// Sleep suspends the process for d of virtual time. Non-positive d yields
// the processor for the current instant (other runnable work at the same
// timestamp may interleave) without advancing time for this process.
func (p *Proc) Sleep(d time.Duration) {
	c := p.c
	if d < 0 {
		d = 0
	}
	p.checkKilled()
	start := c.Now()
	e := c.alloc()
	e.at = start + d
	e.proc = p
	p.pending = e
	c.push(e)
	p.state = stateSleeping
	p.stateAt = e.at
	p.park()
	p.state = stateRunning
	p.checkKilled()
	if o := c.waitObs; o != nil {
		o.ObserveWait(p.name, "sleep", "", start, c.Now())
	}
}

// Yield lets other runnable work at the current instant proceed.
func (p *Proc) Yield() { p.Sleep(0) }

// Event is a one-shot signal in virtual time. Waiters block until Fire is
// called; waits after Fire return immediately. The zero value is not
// usable; construct with NewEvent.
type Event struct {
	c     *Clock
	label string
	fired bool
	// Waiters in registration order: most events have at most one, so
	// the first is held inline and rest is only allocated from the
	// second on. rest is non-empty only while first is set.
	first *Proc
	rest  []*Proc
}

// NewEvent returns an unfired Event on c.
func NewEvent(c *Clock) *Event { return &Event{c: c} }

// NewEventNamed returns an unfired Event carrying a label that wait
// observers see; the label has no effect on scheduling.
func NewEventNamed(c *Clock, label string) *Event { return &Event{c: c, label: label} }

// Fired reports whether the event has been fired.
func (e *Event) Fired() bool { return e.fired }

// Fire signals the event, queueing a wakeup for every current waiter at
// the present instant. Firing an already-fired event is a no-op. Fire
// may be called from a process, a timer callback, or the host goroutine
// before Wait.
func (e *Event) Fire() {
	if e.fired {
		return
	}
	e.fired = true
	p := e.first
	if p == nil {
		return
	}
	c := e.c
	e.first = nil
	p.waitingOn = nil
	c.runq = append(c.runq, p)
	for _, q := range e.rest {
		q.waitingOn = nil
		c.runq = append(c.runq, q)
	}
	e.rest = nil
}

// remove withdraws p from the waiter list, keeping registration order.
func (e *Event) remove(p *Proc) {
	if e.first == p {
		e.first = nil
		if len(e.rest) > 0 {
			e.first = e.rest[0]
			e.rest = append(e.rest[:0], e.rest[1:]...)
		}
		return
	}
	for i, w := range e.rest {
		if w == p {
			e.rest = append(e.rest[:i], e.rest[i+1:]...)
			return
		}
	}
}

// Wait blocks p until the event fires. Returns immediately if already
// fired. p must belong to the event's clock.
func (e *Event) Wait(p *Proc) {
	p.checkKilled()
	if e.fired {
		return
	}
	c := e.c
	var start time.Duration
	obs := c.waitObs
	if obs != nil {
		start = c.Now()
	}
	if e.first == nil {
		e.first = p
	} else {
		e.rest = append(e.rest, p)
	}
	p.waitingOn = e
	p.state = stateEventWait
	p.park()
	p.state = stateRunning
	p.checkKilled()
	if obs != nil {
		obs.ObserveWait(p.name, "event", e.label, start, c.Now())
	}
}

// Timer is a cancellable scheduled callback created by AfterFunc. The
// handle is generation-tagged: once the callback fires (or Stop succeeds)
// the underlying pooled entry may be recycled for an unrelated timer, and
// the stale handle's Stop becomes an inert no-op.
type Timer struct {
	c     *Clock
	entry *timerEntry
	gen   uint64
}

// AfterFunc schedules fn to run at virtual time Now()+d. The callback runs
// inline in the scheduler loop, so time cannot advance while it executes;
// it may call any Clock, Event, or Timer method, but must not block on
// Proc operations (it has no Proc).
func (c *Clock) AfterFunc(d time.Duration, fn func(now time.Duration)) *Timer {
	if d < 0 {
		d = 0
	}
	e := c.alloc()
	e.at = c.Now() + d
	e.fn = fn
	c.push(e)
	return &Timer{c: c, entry: e, gen: e.gen}
}

// Stop cancels the timer. It reports whether the timer was still pending
// (true) or had already fired or been stopped (false). Cancellation
// removes the entry from the queue in O(log n) via its heap index.
func (t *Timer) Stop() bool {
	c := t.c
	e := t.entry
	if e.gen != t.gen {
		return false // fired or stopped; the entry may already serve another timer
	}
	heap.Remove(&c.queue, e.index)
	c.recycle(e)
	return true
}

// timerEntry is a pooled heap element: either a proc wakeup (proc != nil)
// or a scheduled callback (fn != nil). index is its heap position,
// maintained by timerHeap.Swap so removal needs no scan; gen increments
// on every recycle so stale Timer handles cannot touch a reused entry.
type timerEntry struct {
	at    time.Duration
	seq   int64
	index int
	gen   uint64
	proc  *Proc // the sleeper to wake; nil for callbacks
	fn    func(now time.Duration)
}

// alloc takes an entry from the pool (or makes one).
func (c *Clock) alloc() *timerEntry {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return e
	}
	return &timerEntry{}
}

// recycle bumps the entry's generation (invalidating outstanding Timer
// handles), clears it, and returns it to the pool.
func (c *Clock) recycle(e *timerEntry) {
	e.gen++
	e.proc = nil
	e.fn = nil
	e.index = -1
	c.free = append(c.free, e)
}

// push stamps the entry's ordering sequence and inserts it in the heap.
func (c *Clock) push(e *timerEntry) {
	c.seq++
	e.seq = c.seq
	heap.Push(&c.queue, e)
}

func (c *Clock) describeStuck() string {
	names := make([]string, 0, len(c.alive))
	for _, p := range c.alive {
		var st string
		switch p.state {
		case stateSleeping:
			st = fmt.Sprintf("sleeping until %v", p.stateAt)
		case stateEventWait:
			st = "waiting on event"
		default:
			st = "running"
		}
		names = append(names, fmt.Sprintf("%s (%s)", p.name, st))
	}
	sort.Strings(names)
	return fmt.Sprintf("%d proc(s) blocked with no pending timers at t=%v: %s",
		len(names), c.Now(), strings.Join(names, ", "))
}

// timerHeap orders entries by time, then insertion sequence, and keeps
// each entry's index current so cancellation can heap.Remove in O(log n).
type timerHeap []*timerEntry

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	e := x.(*timerEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}
