package vclock

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSleepAdvancesTime(t *testing.T) {
	c := New()
	var got time.Duration
	c.Go("a", func(p *Proc) {
		p.Sleep(5 * time.Second)
		got = p.Now()
	})
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if got != 5*time.Second {
		t.Fatalf("Now after Sleep(5s) = %v, want 5s", got)
	}
}

func TestSleepZeroDoesNotAdvance(t *testing.T) {
	c := New()
	var got time.Duration
	c.Go("a", func(p *Proc) {
		p.Sleep(3 * time.Second)
		p.Yield()
		got = p.Now()
	})
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if got != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", got)
	}
}

func TestNegativeSleepTreatedAsYield(t *testing.T) {
	c := New()
	c.Go("a", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("Now = %v, want 0", p.Now())
		}
	})
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	c := New()
	var mu sync.Mutex
	var order []string
	log := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	c.Go("a", func(p *Proc) {
		p.Sleep(1 * time.Second)
		log("a1")
		p.Sleep(2 * time.Second) // wakes at 3s
		log("a3")
	})
	c.Go("b", func(p *Proc) {
		p.Sleep(2 * time.Second)
		log("b2")
		p.Sleep(2 * time.Second) // wakes at 4s
		log("b4")
	})
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b2", "a3", "b4"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestManyProcsAgreeOnFinalTime(t *testing.T) {
	c := New()
	const n = 200
	var maxSeen int64
	for i := 0; i < n; i++ {
		d := time.Duration(i%17+1) * time.Millisecond
		c.Go("p", func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Sleep(d)
			}
			now := int64(p.Now())
			for {
				old := atomic.LoadInt64(&maxSeen)
				if now <= old || atomic.CompareAndSwapInt64(&maxSeen, old, now) {
					break
				}
			}
		})
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	want := int64(10 * 17 * time.Millisecond)
	if maxSeen != want {
		t.Fatalf("max final time = %v, want %v", time.Duration(maxSeen), time.Duration(want))
	}
}

func TestEventWakesWaiters(t *testing.T) {
	c := New()
	ev := NewEvent(c)
	var woke [2]time.Duration
	for i := 0; i < 2; i++ {
		c.Go("w", func(p *Proc) {
			ev.Wait(p)
			woke[i] = p.Now()
		})
	}
	c.Go("f", func(p *Proc) {
		p.Sleep(7 * time.Second)
		ev.Fire()
	})
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, w := range woke {
		if w != 7*time.Second {
			t.Errorf("waiter %d woke at %v, want 7s", i, w)
		}
	}
}

func TestEventWaitAfterFireReturnsImmediately(t *testing.T) {
	c := New()
	ev := NewEvent(c)
	ev.Fire()
	if !ev.Fired() {
		t.Fatal("Fired() = false after Fire")
	}
	c.Go("w", func(p *Proc) {
		ev.Wait(p)
		if p.Now() != 0 {
			t.Errorf("wait on fired event advanced time to %v", p.Now())
		}
	})
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestEventDoubleFireIsNoop(t *testing.T) {
	c := New()
	ev := NewEvent(c)
	ev.Fire()
	ev.Fire() // must not panic or double-wake
	c.Go("w", func(p *Proc) { ev.Wait(p) })
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestAfterFuncFiresAtScheduledTime(t *testing.T) {
	c := New()
	ev := NewEvent(c)
	var fireAt time.Duration
	c.AfterFunc(9*time.Second, func(now time.Duration) {
		fireAt = now
		ev.Fire()
	})
	var wokeAt time.Duration
	c.Go("w", func(p *Proc) {
		ev.Wait(p)
		wokeAt = p.Now()
	})
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if fireAt != 9*time.Second || wokeAt != 9*time.Second {
		t.Fatalf("fireAt=%v wokeAt=%v, want 9s both", fireAt, wokeAt)
	}
}

func TestTimerStopPreventsCallback(t *testing.T) {
	c := New()
	var fired atomic.Bool
	tm := c.AfterFunc(time.Second, func(time.Duration) { fired.Store(true) })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	c.Go("w", func(p *Proc) { p.Sleep(5 * time.Second) })
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if fired.Load() {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerReschedulePattern(t *testing.T) {
	// The flow-server pattern: cancel and reschedule a completion timer on
	// every arrival.
	c := New()
	ev := NewEvent(c)
	var tm *Timer
	tm = c.AfterFunc(10*time.Second, func(time.Duration) { t.Error("stale timer fired") })
	c.Go("arrival", func(p *Proc) {
		p.Sleep(1 * time.Second)
		tm.Stop()
		c.AfterFunc(2*time.Second, func(now time.Duration) {
			if now != 3*time.Second {
				t.Errorf("rescheduled timer at %v, want 3s", now)
			}
			ev.Fire()
		})
		ev.Wait(p)
	})
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestCallbackMayScheduleMoreWork(t *testing.T) {
	c := New()
	done := NewEvent(c)
	var hops int
	var hop func(now time.Duration)
	hop = func(now time.Duration) {
		hops++
		if hops == 5 {
			done.Fire()
			return
		}
		c.AfterFunc(time.Second, hop)
	}
	c.AfterFunc(time.Second, hop)
	var end time.Duration
	c.Go("w", func(p *Proc) {
		done.Wait(p)
		end = p.Now()
	})
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if hops != 5 || end != 5*time.Second {
		t.Fatalf("hops=%d end=%v, want 5 hops ending at 5s", hops, end)
	}
}

// A deadlock is reported with the stuck processes, and the blocked
// coroutines are stopped rather than leaked: the goroutine count returns
// to where it started, apart from coroutines parked on the process-wide
// free list for reuse.
func TestDeadlockDetected(t *testing.T) {
	before := runtime.NumGoroutine() - idleCoroCount()
	c := New()
	ev := NewEvent(c) // never fired
	unwound := 0
	for i := 0; i < 3; i++ {
		c.Go(fmt.Sprintf("stuck%d", i), func(p *Proc) {
			defer func() { unwound++ }()
			ev.Wait(p)
		})
	}
	c.Go("done", func(p *Proc) { p.Sleep(time.Second) })
	err := c.Wait()
	if err == nil {
		t.Fatal("Wait returned nil for deadlocked clock")
	}
	want := "vclock: deadlock: 3 proc(s) blocked with no pending timers at t=1s: " +
		"stuck0 (waiting on event), stuck1 (waiting on event), stuck2 (waiting on event)"
	if err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
	if unwound != 3 {
		t.Fatalf("%d of 3 blocked processes unwound", unwound)
	}
	if after := runtime.NumGoroutine() - idleCoroCount(); after != before {
		t.Fatalf("goroutines (excluding idle coroutines): %d before, %d after deadlock", before, after)
	}
	if err2 := c.Wait(); err2 == nil || err2.Error() != want {
		t.Fatalf("second Wait = %v, want the same deadlock", err2)
	}
}

// A panic inside a process comes out of Wait with its original value,
// after every other suspended process of the clock has been stopped, and
// the poisoned clock's error keeps the faulting frame.
func TestProcPanicPropagatesToWait(t *testing.T) {
	before := runtime.NumGoroutine() - idleCoroCount()
	boom := errors.New("proc panic")
	c := New()
	ev := NewEvent(c)
	unwound := 0
	for i := 0; i < 4; i++ {
		c.Go("waiter", func(p *Proc) {
			defer func() { unwound++ }()
			ev.Wait(p)
		})
	}
	c.Go("sleeper", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(time.Hour)
	})
	c.Go("finished", func(p *Proc) {})
	c.Go("panicker", func(p *Proc) { sleepThenPanic(p, boom) })
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("Wait panicked with %v, want %v", r, boom)
			}
		}()
		_ = c.Wait()
		t.Fatal("Wait returned instead of re-raising the panic")
	}()
	if unwound != 5 {
		t.Fatalf("%d of 5 suspended processes unwound", unwound)
	}
	if after := runtime.NumGoroutine() - idleCoroCount(); after != before {
		t.Fatalf("goroutines (excluding idle coroutines): %d before, %d after panic", before, after)
	}
	err := c.Wait()
	if err == nil {
		t.Fatal("Wait on a panicked clock returned nil")
	}
	if !strings.Contains(err.Error(), "vclock.sleepThenPanic(") {
		t.Fatalf("clock error lacks the faulting frame:\n%v", err)
	}
}

func sleepThenPanic(p *Proc, v any) {
	p.Sleep(time.Second)
	panic(v)
}

// A panic inside a timer callback also comes out of Wait, and the
// poisoned clock's error keeps the faulting frame.
func TestCallbackPanicPropagatesToWait(t *testing.T) {
	c := New()
	c.AfterFunc(time.Second, func(time.Duration) { callbackPanic() })
	c.Go("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
	func() {
		defer func() {
			if r := recover(); r != "callback panic" {
				t.Fatalf("Wait panicked with %v, want the callback's value", r)
			}
		}()
		_ = c.Wait()
		t.Fatal("Wait returned instead of re-raising the panic")
	}()
	err := c.Wait()
	if err == nil || !strings.Contains(err.Error(), "vclock.callbackPanic(") {
		t.Fatalf("clock error lacks the faulting frame:\n%v", err)
	}
}

func callbackPanic() { panic("callback panic") }

func TestGoFromWithinProc(t *testing.T) {
	c := New()
	var childTime time.Duration
	c.Go("parent", func(p *Proc) {
		p.Sleep(time.Second)
		c.Go("child", func(q *Proc) {
			q.Sleep(time.Second)
			childTime = q.Now()
		})
		p.Sleep(5 * time.Second)
	})
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if childTime != 2*time.Second {
		t.Fatalf("child finished at %v, want 2s", childTime)
	}
}

func TestWaitWithNoProcsReturns(t *testing.T) {
	c := New()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if c.Now() != 0 {
		t.Fatalf("Now = %v, want 0", c.Now())
	}
}

func TestSameInstantOrderIsFIFO(t *testing.T) {
	// Entries at the same timestamp wake in insertion order (seq
	// tiebreak), and each woken proc runs to its next blocking point
	// before the next resumes, giving deterministic runs.
	c := New()
	var order []int
	for i := 0; i < 8; i++ {
		c.Go("p", func(p *Proc) {
			p.Sleep(time.Second)
			order = append(order, i)
		})
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want 0..7", order)
		}
	}
	if len(order) != 8 {
		t.Fatalf("len(order) = %d, want 8", len(order))
	}
}

func BenchmarkSleepWake(b *testing.B) {
	c := New()
	c.Go("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	if err := c.Wait(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawn measures Go plus one resume of a process that returns
// at once: the coroutine handoff and reuse path.
func BenchmarkSpawn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := New()
		for j := 0; j < 64; j++ {
			c.Go("p", func(p *Proc) {})
		}
		if err := c.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSpawnAllocs pins the cost of a process: after warm-up, a 64-proc
// run on a fresh clock, each proc sleeping once, allocates at most 3
// times per proc — coroutines are reused across runs, so a spawn costs
// its Proc and little else.
func TestSpawnAllocs(t *testing.T) {
	const procs = 64
	run := func() {
		c := New()
		for i := 0; i < procs; i++ {
			c.Go("p", func(p *Proc) { p.Sleep(time.Microsecond) })
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the process-wide coroutine free list
	if got := testing.AllocsPerRun(20, run) / procs; got > 3 {
		t.Fatalf("%.2f allocs per proc, want <= 3", got)
	}
}

func BenchmarkManyProcsPingPong(b *testing.B) {
	c := New()
	const procs = 64
	for i := 0; i < procs; i++ {
		c.Go("p", func(p *Proc) {
			for j := 0; j < b.N/procs; j++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	if err := c.Wait(); err != nil {
		b.Fatal(err)
	}
}

// A waiter spawned before the process that fires its event is not a
// deadlock: the host's Go calls only queue work, and the run starts in
// Wait with both processes registered.
func TestSpawnWaiterBeforeFirerIsNotDeadlock(t *testing.T) {
	c := New()
	ev := NewEvent(c)
	c.Go("waiter", func(p *Proc) { ev.Wait(p) })
	c.Go("firer", func(p *Proc) {
		p.Sleep(time.Second)
		ev.Fire()
	})
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
}

// Nothing runs before Wait: the spawned process stays queued and virtual
// time stays at 0 until the scheduler loop starts.
func TestTimeStaysZeroUntilWait(t *testing.T) {
	c := New()
	ran := false
	c.Go("sleeper", func(p *Proc) {
		ran = true
		p.Sleep(time.Second)
	})
	if c.Now() != 0 || ran {
		t.Fatal("the run started before Wait")
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if c.Now() != time.Second {
		t.Fatalf("final time %v", c.Now())
	}
}

// idleCoroCount reports the size of the process-wide free list, whose
// coroutines stay parked as goroutines between runs.
func idleCoroCount() int {
	idleCoros.Lock()
	defer idleCoros.Unlock()
	return len(idleCoros.list)
}
