package vclock

import (
	"iter"
	"sync"
)

// coro is a reusable coroutine that runs process bodies. It runs one
// proc at a time: when a body returns, the coroutine parks itself on its
// clock's free list and, resumed again, runs whichever proc it was
// handed next. Building an iter.Pull coroutine costs about a dozen
// allocations, so reuse is what keeps spawning cheap.
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // the proc being served; nil while idle
}

func newCoro() *coro {
	co := &coro{}
	co.next, co.stop = iter.Pull(co.loop)
	return co
}

// loop is the coroutine body. Every yield hands control back to the
// scheduler loop in Clock.Wait: from inside a body when it blocks, and
// from here once it has finished. A false yield means stop was called.
func (co *coro) loop(yield func(struct{}) bool) {
	co.yield = yield
	for {
		p := co.p
		p.run()
		c := p.c
		if c.tearing {
			return
		}
		c.exit(p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// maxIdleCoros caps the process-wide free list. Each idle coroutine is a
// parked goroutine holding about 0.8 KB of heap plus its stack, so the
// cap bounds what a burst of large runs leaves behind to about 1 MB. A
// clock regenerating the paper's figures at reduced scale runs about
// 600 procs on average, so the list covers a typical next run; on that
// workload caps of 0 and 256 allocate 2.8% and 1.5% more per event.
const maxIdleCoros = 1024

// idleCoros is the process-wide free list that carries coroutines from a
// finished run to the next one, on any clock.
var idleCoros struct {
	sync.Mutex
	list []*coro
}

// takeCoro returns an idle coroutine: the clock's own first, then the
// process-wide list, else a new one.
func (c *Clock) takeCoro() *coro {
	if n := len(c.idle); n > 0 {
		co := c.idle[n-1]
		c.idle[n-1] = nil
		c.idle = c.idle[:n-1]
		return co
	}
	idleCoros.Lock()
	if n := len(idleCoros.list); n > 0 {
		co := idleCoros.list[n-1]
		idleCoros.list[n-1] = nil
		idleCoros.list = idleCoros.list[:n-1]
		idleCoros.Unlock()
		return co
	}
	idleCoros.Unlock()
	return newCoro()
}

// releaseIdle hands the clock's idle coroutines to the process-wide free
// list at the end of a run and stops those beyond its cap.
func (c *Clock) releaseIdle() {
	if len(c.idle) == 0 {
		return
	}
	idleCoros.Lock()
	n := min(len(c.idle), maxIdleCoros-len(idleCoros.list))
	idleCoros.list = append(idleCoros.list, c.idle[:n]...)
	idleCoros.Unlock()
	for _, co := range c.idle[n:] {
		co.stop()
	}
	clear(c.idle)
	c.idle = c.idle[:0]
}
