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
// timers with callbacks (AfterFunc). Timer callbacks run without the
// clock lock held and count as runnable work, so a callback may freely
// use the full public API; time cannot advance underneath it.
//
// Determinism comes from full serialization of process execution: at any
// real moment at most one process of a Clock is running. Every wakeup —
// a timer window's sleeper batch, an Event.Fire, a Kill, a Go spawn — is
// parked in a FIFO run queue rather than signalled immediately, and the
// advance loop delivers exactly one parked wakeup whenever the clock is
// idle (no process running, no callback in flight). The woken process
// runs to its next blocking point before the next wakeup is delivered.
// The host goroutine's calls (Go, AfterFunc, Fire, Kill) only park or
// schedule; the run starts in Wait, so host set-up cannot race the
// processes it spawns. Same-instant processes therefore interact with
// shared simulation state (message queues, caches, FIFO servers) in one
// canonical order — timer pops in (time, seq) order, then
// dynamically-triggered wakeups in the order the serialized execution
// produced them — regardless of GOMAXPROCS, async preemption, or
// host-machine load.
//
// The event engine is built for throughput: timer entries are pooled and
// recycled (generation-tagged so a stale Timer handle can never cancel or
// re-fire a recycled entry), every Proc owns one reusable wake channel,
// same-instant wakeups are drained as a single batch, callbacks run
// inline on the advancing goroutine instead of spawning one per batch,
// and cancellation removes the heap entry in O(log n) via its maintained
// index rather than leaving garbage for later scans. Now() is lock-free.
package vclock

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is a discrete-event virtual clock. The zero value is not usable;
// construct with New.
type Clock struct {
	mu      sync.Mutex
	now     time.Duration
	nowView atomic.Int64 // mirror of now for lock-free Now()
	events  atomic.Int64 // fired entries (proc wakeups + callbacks)
	queue   timerHeap
	seq     int64 // tiebreak for deterministic ordering of same-time entries
	running int   // procs (and in-flight callbacks) currently runnable
	alive   int   // procs started and not yet finished
	procs   map[*Proc]struct{}
	idle    *sync.Cond // signalled when alive drops to zero
	dead    bool       // deadlock detected; clock is poisoned
	deadMsg string

	free      []*timerEntry             // recycled entries (the pool)
	cbScratch []func(now time.Duration) // batch buffer for same-instant callbacks

	// The serialized run queue. Every wakeup is parked here and
	// delivered one at a time, each only once the clock is idle, so the
	// woken proc runs with every other process parked at a blocking
	// point — the order a single-CPU FIFO scheduler produces. deferHead
	// indexes the next wake to deliver; the slice is reset when drained
	// so the backing array is reused.
	deferredQ []chan struct{}
	deferHead int

	// waitObs, when non-nil, observes every blocking interval (sleeps
	// and event waits). Set once via SetWaitObserver before any process
	// runs; read lock-free on the hot path.
	waitObs WaitObserver
}

// WaitObserver receives every blocking edge of the clock's processes:
// kind is "sleep" or "event", label the event's label (empty for
// sleeps and unlabeled events), start/end the blocked interval in
// virtual time. Implementations must be safe for concurrent use and
// cheap — they run on every blocking operation.
// internal/critpath's Recorder implements this interface.
type WaitObserver interface {
	ObserveWait(proc, kind, label string, start, end time.Duration)
}

// SetWaitObserver installs o as the clock's blocking-edge observer.
// Must be called before any process runs; the field is read without
// synchronization afterwards.
func (c *Clock) SetWaitObserver(o WaitObserver) { c.waitObs = o }

// New returns a Clock set to virtual time zero.
func New() *Clock {
	c := &Clock{procs: make(map[*Proc]struct{})}
	c.idle = sync.NewCond(&c.mu)
	return c
}

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
	wake    chan struct{} // reusable cap-1 wake signal; a proc blocks on one thing at a time
	state   procState
	stateAt time.Duration // wake deadline when sleeping, for deadlock reports

	// Kill support. pending is the sleep timer entry while blocked in
	// Sleep, waitingOn the event while blocked in Wait (both guarded by
	// c.mu) so Kill can dequeue a blocked victim; killed is checked
	// lock-free after every wake, and killErr is safely visible to any
	// reader that observed killed == true.
	pending   *timerEntry
	waitingOn *Event
	killed    atomic.Bool
	killErr   error
}

// Killed is the panic value a killed process unwinds with. Spawners that
// need to observe the death (an MPI rank wrapper recording a crash, a
// background stream failing its queue) recover it; a Killed panic that
// reaches the top of a process goroutine is absorbed by the clock, so an
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
// called from another process, a timer callback, or the host goroutine;
// a process must not kill itself (panic with Killed directly instead).
func (p *Proc) Kill(reason error) {
	c := p.c
	c.mu.Lock()
	if p.killed.Load() {
		c.mu.Unlock()
		return
	}
	p.killErr = reason
	p.killed.Store(true)
	if e := p.pending; e != nil {
		// Asleep: cancel the scheduled wakeup and queue it to die.
		heap.Remove(&c.queue, e.index)
		c.recycle(e)
		p.pending = nil
		c.parkWakeLocked(p.wake)
		c.mu.Unlock()
		return
	}
	if ev := p.waitingOn; ev != nil {
		// Blocked on an event: claim the wakeup by clearing waitingOn —
		// a racing Fire skips any waiter whose waitingOn no longer
		// points at it — then withdraw from the waiter list so the
		// event doesn't keep a dead proc.
		p.waitingOn = nil
		c.parkWakeLocked(p.wake)
		removeWaiterLocked(ev, p)
		c.mu.Unlock()
		return
	}
	// Otherwise the proc is runnable (or already queued to run); it dies
	// at its next blocking operation or at its queued wakeup.
	c.mu.Unlock()
}

// removeWaiterLocked withdraws p from ev's waiter list if present.
// Caller holds ev.c.mu. A concurrent Fire may already have stolen the
// list, in which case p is simply absent.
func removeWaiterLocked(ev *Event, p *Proc) {
	for i, w := range ev.waiters {
		if w == p {
			ev.waiters = append(ev.waiters[:i], ev.waiters[i+1:]...)
			return
		}
	}
}

// parkWakeLocked enqueues a wakeup on the serialized run queue. The
// woken proc carries no runnable claim while parked; the delivering
// advance loop claims running++ at the moment it signals the channel.
// Caller holds c.mu. The parker needs no follow-up: a process or timer
// callback delivers at its next block point or when its batch ends,
// and wakes parked by the host before Wait are delivered by Wait.
func (c *Clock) parkWakeLocked(ch chan struct{}) {
	c.deferredQ = append(c.deferredQ, ch)
}

// deliverLocked delivers the head of the run queue. Caller holds c.mu
// and has checked that the clock is idle and the queue non-empty.
func (c *Clock) deliverLocked() {
	ch := c.deferredQ[c.deferHead]
	c.deferredQ[c.deferHead] = nil
	c.deferHead++
	if c.deferHead == len(c.deferredQ) {
		c.deferredQ = c.deferredQ[:0]
		c.deferHead = 0
	}
	c.running++
	ch <- struct{}{}
}

// checkKilled panics with Killed if the proc has been killed. Safe to
// call lock-free: killErr is published before the killed flag.
func (p *Proc) checkKilled() {
	if p.killed.Load() {
		panic(Killed{p.killErr})
	}
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Clock returns the clock the process belongs to.
func (p *Proc) Clock() *Clock { return p.c }

// Now returns the current virtual time. It is lock-free: time cannot
// advance while any process is runnable, so a running caller always sees
// a stable value.
func (c *Clock) Now() time.Duration {
	return time.Duration(c.nowView.Load())
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
	p := &Proc{c: c, name: name, wake: make(chan struct{}, 1)}
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		panic("vclock: Go on deadlocked clock: " + c.deadMsg)
	}
	c.alive++
	c.procs[p] = struct{}{}
	c.parkWakeLocked(p.wake)
	c.mu.Unlock()
	go func() {
		defer func() {
			c.mu.Lock()
			c.alive--
			delete(c.procs, p)
			c.blockLocked() // running--; may advance time or end the run
			c.mu.Unlock()
		}()
		defer func() {
			// A Killed panic that nobody recovered means the spawner does
			// not care how the process ends; absorb it so the kill just
			// terminates the process instead of crashing the host.
			if r := recover(); r != nil {
				if _, ok := r.(Killed); !ok {
					panic(r)
				}
			}
		}()
		<-p.wake
		p.checkKilled() // killed before first run: die without running fn
		fn(p)
	}()
}

// Hold pins virtual time: while held, the clock treats the holder as
// runnable work, so time cannot advance and deadlock detection is
// suppressed. Release it before calling Wait. The returned release
// function is idempotent and never advances the clock itself: the
// holder's next block point, or Wait, does.
func (c *Clock) Hold() (release func()) {
	c.mu.Lock()
	c.running++
	c.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.running--
			c.mu.Unlock()
		})
	}
}

// Wait blocks the host goroutine (in real time) until every process has
// finished and no timer callback is in flight, so post-Wait reads of the
// clock see a quiescent simulation. It returns an error if the clock
// deadlocked.
func (c *Clock) Wait() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The host's calls never advance the clock, so a run whose
	// processes are all still parked starts here.
	c.maybeAdvanceLocked()
	for (c.alive > 0 || c.running > 0) && !c.dead {
		c.idle.Wait()
	}
	if c.dead {
		return fmt.Errorf("vclock: deadlock: %s", c.deadMsg)
	}
	return nil
}

// Sleep suspends the process for d of virtual time. Non-positive d yields
// the processor for the current instant (other runnable work at the same
// timestamp may interleave) without advancing time for this process.
func (p *Proc) Sleep(d time.Duration) {
	c := p.c
	if d < 0 {
		d = 0
	}
	var sleepStart time.Duration
	if c.waitObs != nil {
		sleepStart = c.Now()
	}
	c.mu.Lock()
	if p.killed.Load() {
		c.mu.Unlock()
		panic(Killed{p.killErr})
	}
	e := c.alloc()
	e.at = c.now + d
	e.wake = p.wake
	e.proc = p
	p.pending = e
	c.push(e)
	p.state = stateSleeping
	p.stateAt = e.at
	c.blockLocked()
	c.mu.Unlock()
	<-p.wake
	p.state = stateRunning
	p.checkKilled()
	if o := c.waitObs; o != nil {
		o.ObserveWait(p.name, "sleep", "", sleepStart, c.Now())
	}
}

// Yield lets other runnable work at the current instant proceed.
func (p *Proc) Yield() { p.Sleep(0) }

// Event is a one-shot signal in virtual time. Waiters block until Fire is
// called; waits after Fire return immediately. The zero value is not
// usable; construct with NewEvent.
type Event struct {
	c       *Clock
	label   string
	fired   bool
	waiters []*Proc
}

// NewEvent returns an unfired Event on c.
func NewEvent(c *Clock) *Event { return &Event{c: c} }

// NewEventNamed returns an unfired Event carrying a label that wait
// observers see; the label has no effect on scheduling.
func NewEventNamed(c *Clock, label string) *Event { return &Event{c: c, label: label} }

// Fired reports whether the event has been fired.
func (e *Event) Fired() bool {
	e.c.mu.Lock()
	defer e.c.mu.Unlock()
	return e.fired
}

// Fire signals the event, queueing a wakeup for every current waiter at
// the present instant. Firing an already-fired event is a no-op. Fire
// may be called from a process, a timer callback, or the host goroutine.
func (e *Event) Fire() {
	c := e.c
	c.mu.Lock()
	if e.fired {
		c.mu.Unlock()
		return
	}
	e.fired = true
	waiters := e.waiters
	e.waiters = nil
	// Park in registration order. The waitingOn check skips waiters a
	// racing Kill already claimed (it clears waitingOn under this lock).
	for _, p := range waiters {
		if p.waitingOn == e {
			p.waitingOn = nil
			c.parkWakeLocked(p.wake)
		}
	}
	c.mu.Unlock()
}

// Wait blocks p until the event fires. Returns immediately if already
// fired. p must belong to the event's clock.
func (e *Event) Wait(p *Proc) {
	c := e.c
	c.mu.Lock()
	if p.killed.Load() {
		c.mu.Unlock()
		panic(Killed{p.killErr})
	}
	if e.fired {
		c.mu.Unlock()
		return
	}
	// Capture the wait's start before blockLocked: on the serial engine
	// blocking the last runnable proc advances the clock inline, so a
	// read afterwards would see the wake instant, not the block instant.
	var start time.Duration
	obs := c.waitObs
	if obs != nil {
		start = time.Duration(c.nowView.Load())
	}
	e.waiters = append(e.waiters, p)
	p.waitingOn = e
	p.state = stateEventWait
	c.blockLocked()
	c.mu.Unlock()
	<-p.wake
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
// without the clock lock held and counts as runnable work, so time cannot
// advance while it executes; it may call any Clock, Event, or Timer
// method, but must not block on Proc operations (it has no Proc).
func (c *Clock) AfterFunc(d time.Duration, fn func(now time.Duration)) *Timer {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.alloc()
	e.at = c.now + d
	e.fn = fn
	c.push(e)
	return &Timer{c: c, entry: e, gen: e.gen}
}

// Stop cancels the timer. It reports whether the timer was still pending
// (true) or had already fired or been stopped (false). Cancellation
// removes the entry from the queue in O(log n) via its heap index.
func (t *Timer) Stop() bool {
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	e := t.entry
	if e.gen != t.gen {
		return false // fired or stopped; the entry may already serve another timer
	}
	heap.Remove(&c.queue, e.index)
	c.recycle(e)
	return true
}

// timerEntry is a pooled heap element: either a proc wakeup (wake != nil)
// or a scheduled callback (fn != nil). index is its heap position,
// maintained by timerHeap.Swap so removal needs no scan; gen increments
// on every recycle so stale Timer handles cannot touch a reused entry.
type timerEntry struct {
	at    time.Duration
	seq   int64
	index int
	gen   uint64
	wake  chan struct{}
	proc  *Proc // owner of a sleep wakeup, so Kill can cancel it; nil for callbacks
	fn    func(now time.Duration)
}

// alloc takes an entry from the pool (or makes one). Caller holds c.mu.
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
// handles), clears it, and returns it to the pool. Caller holds c.mu.
func (c *Clock) recycle(e *timerEntry) {
	e.gen++
	e.wake = nil
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

// blockLocked marks the calling process as blocked (or exited) and
// advances virtual time if it was the last runnable one. Caller holds
// c.mu.
func (c *Clock) blockLocked() {
	c.running--
	c.maybeAdvanceLocked()
}

// maybeAdvanceLocked delivers the next serialized wakeup, advancing
// virtual time when the run queue is empty. Each iteration first
// delivers one parked wake, if any — the woken proc then runs alone
// until its next blocking point, which re-enters this loop. With the
// queue drained it jumps to the earliest pending instant and pops every
// entry scheduled there as one batch: callbacks run to completion FIRST,
// inline on this goroutine with the lock released — so a callback
// killing a proc that wakes at this same instant publishes the kill flag
// before the victim resumes — and the batch's proc wakeups are parked in
// (time, seq) order for one-at-a-time delivery. Callbacks count as
// runnable work, so no other goroutine can advance concurrently and the
// shared batch buffer is safe. The loop (instead of recursion) keeps
// long callback chains — e.g. a flow server rescheduling its completion
// timer for the whole run — at constant stack depth. Caller holds c.mu;
// the lock is held again on return.
func (c *Clock) maybeAdvanceLocked() {
	for {
		if c.running > 0 || c.dead {
			return
		}
		if c.deferHead < len(c.deferredQ) {
			c.deliverLocked()
			return
		}
		if c.alive == 0 {
			// The last process has exited: the run is over. Time never
			// advances past the final process, so timers still pending
			// (e.g. fault windows scheduled beyond the end of the run)
			// stay unfired and post-run reads of Now() are deterministic.
			// This is also the only place Wait is woken, which guarantees
			// it cannot return while a timer callback is in flight.
			c.idle.Broadcast()
			return
		}
		if c.queue.Len() == 0 {
			// Every process is blocked and nothing is scheduled: the
			// simulation has deadlocked. Poison the clock so Wait
			// reports it; the parked process goroutines are leaked,
			// which is acceptable for a diagnosable programming error.
			c.dead = true
			c.deadMsg = c.describeStuckLocked()
			c.idle.Broadcast()
			return
		}
		t := c.queue[0].at
		c.now = t
		c.nowView.Store(int64(t))
		cbs := c.cbScratch[:0]
		nwakes := 0
		var fired int64
		for c.queue.Len() > 0 && c.queue[0].at == t {
			e := heap.Pop(&c.queue).(*timerEntry)
			fired++
			if e.wake != nil {
				if e.proc != nil {
					e.proc.pending = nil
				}
				c.deferredQ = append(c.deferredQ, e.wake)
				nwakes++
			} else {
				cbs = append(cbs, e.fn)
			}
			c.recycle(e)
		}
		c.cbScratch = cbs
		c.events.Add(fired)
		totalEvents.Add(fired)
		if len(cbs) > 0 {
			// Callbacks count as runnable work so time holds still while
			// they execute; run them here with the lock dropped. Wakes
			// they trigger are parked behind the window's own, so every
			// proc of the instant resumes before any kill victim or
			// event waiter a callback released.
			c.running += len(cbs)
			c.mu.Unlock()
			for _, fn := range cbs {
				fn(t)
			}
			c.mu.Lock()
			c.running -= len(cbs)
		}
		// Loop: the next iteration delivers the window's first parked
		// wake (or evaluates the next instant after a callback-only
		// batch that parked nothing).
	}
}

func (c *Clock) describeStuckLocked() string {
	names := make([]string, 0, len(c.procs))
	for p := range c.procs {
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
		len(names), c.now, strings.Join(names, ", "))
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
