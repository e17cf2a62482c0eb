// Package mpi implements a simulated MPI runtime on the virtual clock.
//
// Ranks are vclock processes; one Comm handle per rank gives the usual
// SPMD surface: Rank/Size, Barrier, Bcast, Reduce, Allreduce, Gather,
// Allgather, and tagged point-to-point Send/Recv. Collectives follow MPI
// matching semantics: every rank must issue the same collectives in the
// same order. Data is exchanged through shared memory (this is a
// single-process simulation); the cost model charges a configurable
// latency per collective, which is all the evaluated workloads need —
// the paper folds communication time into the computation phase.
package mpi

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"asyncio/internal/critpath"
	"asyncio/internal/metrics"
	"asyncio/internal/vclock"
)

// Costs configures the communication cost model.
type Costs struct {
	// PointToPointLatency is charged to the receiver per matched message.
	PointToPointLatency time.Duration
	// CollectiveLatency is charged to every rank per collective, scaled
	// by ceil(log2(size)) hops.
	CollectiveLatency time.Duration
	// Metrics, when non-nil, records collective traffic: every rank
	// observes its own blocking time per collective into
	// "mpi.collective_wait_seconds" (the last-arriving rank observes
	// zero, so the distribution captures the skew barriers absorb), and
	// "mpi.collectives" counts rank-entries. Sub-communicators from
	// Split inherit the registry.
	Metrics *metrics.Registry
	// Crit, when non-nil, records every collective rendezvous and
	// point-to-point receive wait as a causal edge. Root-world
	// collectives carry a global sequence detail ("coll:%08d") that the
	// critical-path analysis uses as segment boundaries; Split
	// sub-communicators record plain "collective" edges (their sequence
	// is not a global sync point). Inherited by Split.
	Crit *critpath.Recorder
}

// DefaultCosts are small but nonzero, so collectives are visible in
// traces without dominating any phase.
func DefaultCosts() Costs {
	return Costs{
		PointToPointLatency: 2 * time.Microsecond,
		CollectiveLatency:   1 * time.Microsecond,
	}
}

// World is the shared state behind a set of ranks.
type World struct {
	mu      sync.Mutex
	clk     *vclock.Clock
	size    int
	costs   Costs
	segRoot bool // root world: its collective sequence bounds critical-path segments
	colls   map[int64]*collSlot
	boxes   map[msgKey]*mailbox
	subs    map[subKey]*World
	procs   []*vclock.Proc // rank → process, for Kill; nil until the rank starts
	done    int            // ranks whose goroutine has returned
	abort   error
	abortAt time.Duration
	abortBy int
	aborted bool
}

// Finished reports whether every rank goroutine has returned (normally,
// by abort, or by kill). Crash schedulers use it to turn a crash firing
// after the application completed into a no-op.
func (w *World) Finished() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.done == w.size
}

// abortPanic unwinds a rank goroutine after the world aborts, mirroring
// MPI_Abort's termination semantics. Recovered by the rank wrapper.
type abortPanic struct{}

type msgKey struct {
	src, dst, tag int
}

type mailbox struct {
	queue   []any
	waiters []*recvWaiter
}

type recvWaiter struct {
	ev  *vclock.Event
	msg any
}

type collSlot struct {
	arrived int
	data    []any
	ev      *vclock.Event
	result  any
}

// Comm is one rank's communicator handle.
type Comm struct {
	w    *World
	rank int
	p    *vclock.Proc
	seq  int64
}

// Run spawns size rank processes on clk, each executing fn with its own
// Comm, and returns the World immediately. Use clk.Wait (or World.Barrier
// patterns inside fn) to join.
func Run(clk *vclock.Clock, size int, costs Costs, fn func(c *Comm)) *World {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: invalid world size %d", size))
	}
	w := &World{
		clk:     clk,
		size:    size,
		costs:   costs,
		segRoot: true,
		colls:   make(map[int64]*collSlot),
		boxes:   make(map[msgKey]*mailbox),
		procs:   make([]*vclock.Proc, size),
	}
	for r := 0; r < size; r++ {
		c := &Comm{w: w, rank: r}
		clk.Go(fmt.Sprintf("rank%d", r), func(p *vclock.Proc) {
			defer func() {
				w.mu.Lock()
				w.done++
				w.mu.Unlock()
			}()
			defer func() {
				if r := recover(); r != nil {
					switch r.(type) {
					case abortPanic, vclock.Killed:
						return // world aborted or rank killed; unwind quietly
					}
					panic(r)
				}
			}()
			c.p = p
			w.mu.Lock()
			w.procs[c.rank] = p
			w.mu.Unlock()
			fn(c)
		})
	}
	return w
}

// Rank returns this rank's index in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.w.size }

// Proc returns the rank's virtual-clock process, for Sleep/Now.
func (c *Comm) Proc() *vclock.Proc { return c.p }

// Now returns the current virtual time.
func (c *Comm) Now() time.Duration { return c.p.Now() }

// Abort records an error on the world and releases every rank blocked in
// a collective or receive — those ranks unwind like MPI_Abort. The
// earliest failure in virtual time wins, ties broken by rank, so the
// reported error is a function of the simulation alone: ranks failing at
// the same virtual instant race to call Abort, and goroutine arrival
// order must not pick the winner. Use World.Err after clk.Wait to check
// the run.
func (c *Comm) Abort(err error) {
	c.w.abortAs(c.p.Now(), c.rank, err)
}

// abortAs records an abort attributed to rank at virtual time now and
// releases every blocked rank (earliest time wins, lowest rank on ties).
func (w *World) abortAs(now time.Duration, rank int, err error) {
	w.mu.Lock()
	if w.abort == nil || now < w.abortAt || (now == w.abortAt && rank < w.abortBy) {
		w.abort = fmt.Errorf("rank %d: %w", rank, err)
		w.abortAt = now
		w.abortBy = rank
	}
	w.aborted = true
	evs := w.abortEventsLocked()
	w.mu.Unlock()
	for _, ev := range evs {
		ev.Fire()
	}
}

// abortEventsLocked collects (and clears) every event a rank is blocked
// on — collective rendezvous and receive waits. Caller holds w.mu and
// fires the events after releasing it. The collection order is part of
// the simulation's output (it decides the order blocked ranks unwind),
// so both maps are walked in sorted key order — never in Go's
// randomized map order.
func (w *World) abortEventsLocked() []*vclock.Event {
	var evs []*vclock.Event
	collKeys := make([]int64, 0, len(w.colls))
	for key := range w.colls {
		collKeys = append(collKeys, key)
	}
	sort.Slice(collKeys, func(i, j int) bool { return collKeys[i] < collKeys[j] })
	for _, key := range collKeys {
		evs = append(evs, w.colls[key].ev)
	}
	boxKeys := make([]msgKey, 0, len(w.boxes))
	for key := range w.boxes {
		boxKeys = append(boxKeys, key)
	}
	sort.Slice(boxKeys, func(i, j int) bool {
		a, b := boxKeys[i], boxKeys[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.tag < b.tag
	})
	for _, key := range boxKeys {
		mb := w.boxes[key]
		for _, wt := range mb.waiters {
			evs = append(evs, wt.ev)
		}
		mb.waiters = nil
	}
	return evs
}

// Kill terminates one rank at the current virtual instant: the victim's
// process dies with a vclock.Killed panic (its pending sleep or event
// wait is cancelled), and the death is observed by every surviving rank
// as a revoked communicator — an abort recorded with Abort's
// earliest-virtual-time ordering that unwinds ranks blocked in
// collectives or receives, and fails the next MPI call of the rest.
// Callable from a timer callback, another process, or the host.
func (w *World) Kill(rank int, err error) {
	if rank < 0 || rank >= w.size {
		return
	}
	w.mu.Lock()
	victim := w.procs[rank]
	w.mu.Unlock()
	if victim != nil {
		// Kill before firing abort events so the victim dies as a crash
		// (Killed) rather than unwinding like a surviving rank.
		victim.Kill(err)
	}
	w.abortAs(w.clk.Now(), rank, err)
}

func (w *World) checkAborted() {
	w.mu.Lock()
	aborted := w.aborted
	w.mu.Unlock()
	if aborted {
		panic(abortPanic{})
	}
}

// Err returns the error recorded via Abort (earliest virtual time,
// lowest rank on ties), if any.
func (w *World) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.abort
}

func (w *World) collLatency() time.Duration {
	hops := int(math.Ceil(math.Log2(float64(w.size))))
	if hops < 1 {
		hops = 1
	}
	return time.Duration(hops) * w.costs.CollectiveLatency
}

// collective is the rendezvous behind every collective: rank contributes
// a value; the last arriving rank computes the result from all
// contributions and wakes the others. All ranks leave at the same virtual
// instant plus the collective latency.
func collective[R any](c *Comm, contrib any, compute func(data []any) R) R {
	c.seq++
	key := c.seq
	w := c.w
	w.mu.Lock()
	if w.aborted {
		w.mu.Unlock()
		panic(abortPanic{})
	}
	slot, ok := w.colls[key]
	if !ok {
		slot = &collSlot{data: make([]any, w.size), ev: vclock.NewEventNamed(w.clk, "mpi:collective")}
		w.colls[key] = slot
	}
	slot.data[c.rank] = contrib
	slot.arrived++
	last := slot.arrived == w.size
	if last {
		delete(w.colls, key)
	}
	w.mu.Unlock()
	enter := c.p.Now()
	if last {
		slot.result = compute(slot.data)
		slot.ev.Fire()
	} else {
		slot.ev.Wait(c.p)
		w.checkAborted()
	}
	if m := w.costs.Metrics; m != nil {
		m.Counter("mpi.collectives").Add(1)
		m.Histogram("mpi.collective_wait_seconds").Observe((c.p.Now() - enter).Seconds())
	}
	if w.costs.Crit != nil {
		detail := "collective"
		if w.segRoot {
			// Zero-padded so lexicographic order equals sequence order.
			detail = fmt.Sprintf("coll:%08d", key)
		}
		w.costs.Crit.Record(critpath.Edge{
			Track: c.p.Name(), Cause: critpath.CollectiveWait, Subsystem: "mpi",
			Detail: detail, Start: enter, End: c.p.Now(),
		})
	}
	c.p.Sleep(w.collLatency())
	return slot.result.(R)
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() {
	collective(c, nil, func([]any) struct{} { return struct{}{} })
}

// Bcast distributes root's value to every rank.
func Bcast[T any](c *Comm, v T, root int) T {
	return collective(c, v, func(data []any) T { return data[root].(T) })
}

// Reduce combines all contributions with op; only root receives the
// result (other ranks get the zero value), mirroring MPI_Reduce.
func Reduce[T any](c *Comm, v T, op func(a, b T) T, root int) T {
	res := collective(c, v, func(data []any) T {
		acc := data[0].(T)
		for _, d := range data[1:] {
			acc = op(acc, d.(T))
		}
		return acc
	})
	if c.rank != root {
		var zero T
		return zero
	}
	return res
}

// Allreduce combines all contributions with op; every rank receives the
// result.
func Allreduce[T any](c *Comm, v T, op func(a, b T) T) T {
	return collective(c, v, func(data []any) T {
		acc := data[0].(T)
		for _, d := range data[1:] {
			acc = op(acc, d.(T))
		}
		return acc
	})
}

// Gather collects one value per rank, ordered by rank; only root receives
// the slice (others get nil).
func Gather[T any](c *Comm, v T, root int) []T {
	res := collective(c, v, func(data []any) []T {
		out := make([]T, len(data))
		for i, d := range data {
			out[i] = d.(T)
		}
		return out
	})
	if c.rank != root {
		return nil
	}
	return res
}

// Allgather collects one value per rank, ordered by rank, on every rank.
func Allgather[T any](c *Comm, v T) []T {
	return collective(c, v, func(data []any) []T {
		out := make([]T, len(data))
		for i, d := range data {
			out[i] = d.(T)
		}
		return out
	})
}

// Send delivers v to rank dst with the given tag. Sends are buffered and
// never block.
func Send[T any](c *Comm, dst, tag int, v T) {
	w := c.w
	if dst < 0 || dst >= w.size {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d (size %d)", dst, w.size))
	}
	key := msgKey{src: c.rank, dst: dst, tag: tag}
	w.mu.Lock()
	if w.aborted {
		w.mu.Unlock()
		panic(abortPanic{})
	}
	mb, ok := w.boxes[key]
	if !ok {
		mb = &mailbox{}
		w.boxes[key] = mb
	}
	if len(mb.waiters) > 0 {
		wt := mb.waiters[0]
		mb.waiters = mb.waiters[1:]
		wt.msg = v
		w.mu.Unlock()
		wt.ev.Fire()
		return
	}
	mb.queue = append(mb.queue, v)
	w.mu.Unlock()
}

// Recv blocks until a message from rank src with the given tag arrives,
// and returns it. Messages from the same (src, tag) arrive in send order.
func Recv[T any](c *Comm, src, tag int) T {
	w := c.w
	if src < 0 || src >= w.size {
		panic(fmt.Sprintf("mpi: Recv from invalid rank %d (size %d)", src, w.size))
	}
	key := msgKey{src: src, dst: c.rank, tag: tag}
	w.mu.Lock()
	if w.aborted {
		w.mu.Unlock()
		panic(abortPanic{})
	}
	mb, ok := w.boxes[key]
	if !ok {
		mb = &mailbox{}
		w.boxes[key] = mb
	}
	var msg any
	if len(mb.queue) > 0 && len(mb.waiters) == 0 {
		msg = mb.queue[0]
		mb.queue = mb.queue[1:]
		w.mu.Unlock()
	} else {
		wt := &recvWaiter{ev: vclock.NewEventNamed(w.clk, "mpi:recv")}
		mb.waiters = append(mb.waiters, wt)
		w.mu.Unlock()
		enter := c.p.Now()
		wt.ev.Wait(c.p)
		w.checkAborted()
		w.costs.Crit.Record(critpath.Edge{
			Track: c.p.Name(), Cause: critpath.QueueWait, Subsystem: "mpi",
			Detail: "recv", Start: enter, End: c.p.Now(),
		})
		msg = wt.msg
	}
	c.p.Sleep(w.costs.PointToPointLatency)
	return msg.(T)
}

// Scatter distributes root's slice, one element per rank, mirroring
// MPI_Scatter. Root must supply exactly Size elements; other ranks pass
// nil.
func Scatter[T any](c *Comm, values []T, root int) T {
	return collective(c, values, func(data []any) []T {
		vs := data[root].([]T)
		if len(vs) != c.w.size {
			panic(fmt.Sprintf("mpi: Scatter with %d values for %d ranks", len(vs), c.w.size))
		}
		return vs
	})[c.rank]
}

// Scan computes the inclusive prefix reduction over ranks: rank r
// receives op(v0, v1, ..., vr), mirroring MPI_Scan.
func Scan[T any](c *Comm, v T, op func(a, b T) T) T {
	return collective(c, v, func(data []any) []T {
		out := make([]T, len(data))
		acc := data[0].(T)
		out[0] = acc
		for i := 1; i < len(data); i++ {
			acc = op(acc, data[i].(T))
			out[i] = acc
		}
		return out
	})[c.rank]
}

// Split partitions the world into sub-communicators by color, mirroring
// MPI_Comm_split with key = existing rank order. Every rank must call
// it; the returned Comm spans the ranks that passed the same color and
// shares the parent's clock, costs, and abort state.
func (c *Comm) Split(color int) *Comm {
	type member struct {
		rank, color int
	}
	members := collective(c, member{rank: c.rank, color: color}, func(data []any) []member {
		out := make([]member, len(data))
		for i, d := range data {
			out[i] = d.(member)
		}
		return out
	})
	// Sub-communicator worlds are memoized per (collective instance,
	// color) on the parent so all members share state.
	key := subKey{seq: c.seq, color: color}
	var newRank, newSize int
	for _, m := range members {
		if m.color != color {
			continue
		}
		if m.rank < c.rank {
			newRank++
		}
		newSize++
	}
	w := c.w
	w.mu.Lock()
	if w.subs == nil {
		w.subs = make(map[subKey]*World)
	}
	sub, ok := w.subs[key]
	if !ok {
		sub = &World{
			clk:   w.clk,
			size:  newSize,
			costs: w.costs,
			colls: make(map[int64]*collSlot),
			boxes: make(map[msgKey]*mailbox),
		}
		w.subs[key] = sub
	}
	w.mu.Unlock()
	return &Comm{w: sub, rank: newRank, p: c.p}
}

type subKey struct {
	seq   int64
	color int
}
