package flow

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"asyncio/internal/vclock"
)

const MiB = 1 << 20

func run(t *testing.T, clk *vclock.Clock) {
	t.Helper()
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleTransferTime(t *testing.T) {
	clk := vclock.New()
	srv := NewServer(clk, ConstCapacity(100*MiB)) // 100 MiB/s
	var took time.Duration
	clk.Go("x", func(p *vclock.Proc) {
		took = srv.Transfer(p, 200*MiB)
	})
	run(t, clk)
	if got, want := took.Seconds(), 2.0; math.Abs(got-want) > 1e-6 {
		t.Fatalf("transfer took %vs, want %vs", got, want)
	}
}

func TestZeroBytesImmediate(t *testing.T) {
	clk := vclock.New()
	srv := NewServer(clk, ConstCapacity(MiB))
	clk.Go("x", func(p *vclock.Proc) {
		if d := srv.Transfer(p, 0); d != 0 {
			t.Errorf("zero-byte transfer took %v", d)
		}
		if d := srv.Transfer(p, -5); d != 0 {
			t.Errorf("negative transfer took %v", d)
		}
	})
	run(t, clk)
}

func TestTwoEqualFlowsShareBandwidth(t *testing.T) {
	clk := vclock.New()
	srv := NewServer(clk, ConstCapacity(100*MiB))
	var took [2]time.Duration
	for i := 0; i < 2; i++ {
		clk.Go("x", func(p *vclock.Proc) {
			took[i] = srv.Transfer(p, 100*MiB)
		})
	}
	run(t, clk)
	// Two flows share 100 MiB/s: each gets 50 MiB/s, both finish at 2s.
	for i, d := range took {
		if math.Abs(d.Seconds()-2.0) > 1e-6 {
			t.Errorf("flow %d took %vs, want 2s", i, d.Seconds())
		}
	}
}

func TestLateArrivalProcessorSharing(t *testing.T) {
	clk := vclock.New()
	srv := NewServer(clk, ConstCapacity(100*MiB))
	var first, second time.Duration
	clk.Go("a", func(p *vclock.Proc) {
		first = srv.Transfer(p, 100*MiB)
	})
	clk.Go("b", func(p *vclock.Proc) {
		p.Sleep(500 * time.Millisecond)
		second = srv.Transfer(p, 100*MiB)
	})
	run(t, clk)
	// Flow A runs alone for 0.5s (50 MiB done), then shares. Remaining 50
	// MiB at 50 MiB/s = 1s more: A finishes at 1.5s (duration 1.5s).
	// B then runs alone: it did 50 MiB in its first second, 50 MiB left at
	// full rate = 0.5s: B's duration = 1.5s.
	if math.Abs(first.Seconds()-1.5) > 1e-6 {
		t.Errorf("first flow took %vs, want 1.5s", first.Seconds())
	}
	if math.Abs(second.Seconds()-1.5) > 1e-6 {
		t.Errorf("second flow took %vs, want 1.5s", second.Seconds())
	}
}

func TestLinearCapacityScalesUntilCeiling(t *testing.T) {
	clk := vclock.New()
	// 10 MiB/s per flow up to 40 MiB/s aggregate.
	srv := NewServer(clk, LinearCapacity(10*MiB, 40*MiB))
	elapsed := make([]time.Duration, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		clk.Go("x", func(p *vclock.Proc) {
			defer wg.Done()
			elapsed[i] = srv.Transfer(p, 10*MiB)
		})
	}
	run(t, clk)
	wg.Wait()
	// 8 flows, aggregate capped at 40 MiB/s → each flow gets 5 MiB/s →
	// 10 MiB takes 2s.
	for i, d := range elapsed {
		if math.Abs(d.Seconds()-2.0) > 1e-6 {
			t.Errorf("flow %d took %vs, want 2s", i, d.Seconds())
		}
	}
}

func TestPerFlowRateCap(t *testing.T) {
	clk := vclock.New()
	srv := NewServer(clk, ConstCapacity(100*MiB))
	var capped, free time.Duration
	clk.Go("capped", func(p *vclock.Proc) {
		capped = srv.TransferLimited(p, 10*MiB, 10*MiB)
	})
	clk.Go("free", func(p *vclock.Proc) {
		free = srv.Transfer(p, 90*MiB)
	})
	run(t, clk)
	// Capped flow gets 10 MiB/s; the free flow water-fills the remaining
	// 90 MiB/s. Both finish at t=1s.
	if math.Abs(capped.Seconds()-1.0) > 1e-6 {
		t.Errorf("capped flow took %vs, want 1s", capped.Seconds())
	}
	if math.Abs(free.Seconds()-1.0) > 1e-6 {
		t.Errorf("free flow took %vs, want 1s", free.Seconds())
	}
}

func TestWaterFillingAllCapped(t *testing.T) {
	clk := vclock.New()
	srv := NewServer(clk, ConstCapacity(1000*MiB))
	var took [3]time.Duration
	for i := 0; i < 3; i++ {
		clk.Go("x", func(p *vclock.Proc) {
			took[i] = srv.TransferLimited(p, 10*MiB, 10*MiB)
		})
	}
	run(t, clk)
	for i, d := range took {
		if math.Abs(d.Seconds()-1.0) > 1e-6 {
			t.Errorf("flow %d took %vs, want 1s (rate cap binding)", i, d.Seconds())
		}
	}
}

func TestSequentialTransfersAccumulate(t *testing.T) {
	clk := vclock.New()
	srv := NewServer(clk, ConstCapacity(10*MiB))
	var end time.Duration
	clk.Go("x", func(p *vclock.Proc) {
		srv.Transfer(p, 10*MiB)
		srv.Transfer(p, 20*MiB)
		end = p.Now()
	})
	run(t, clk)
	if math.Abs(end.Seconds()-3.0) > 1e-6 {
		t.Fatalf("sequential transfers ended at %vs, want 3s", end.Seconds())
	}
}

func TestActiveCount(t *testing.T) {
	clk := vclock.New()
	srv := NewServer(clk, ConstCapacity(MiB))
	clk.Go("a", func(p *vclock.Proc) { srv.Transfer(p, MiB) })
	clk.Go("watch", func(p *vclock.Proc) {
		p.Sleep(100 * time.Millisecond)
		if n := srv.Active(); n != 1 {
			t.Errorf("Active = %d mid-transfer, want 1", n)
		}
		p.Sleep(2 * time.Second)
		if n := srv.Active(); n != 0 {
			t.Errorf("Active = %d after completion, want 0", n)
		}
	})
	run(t, clk)
}

func TestManyFlowsConserveWork(t *testing.T) {
	// N identical flows on a constant-capacity server must take exactly
	// N * (size/capacity) — processor sharing conserves total work.
	clk := vclock.New()
	const n = 50
	srv := NewServer(clk, ConstCapacity(100*MiB))
	var maxEnd time.Duration
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		clk.Go("x", func(p *vclock.Proc) {
			srv.Transfer(p, 2*MiB)
			mu.Lock()
			if p.Now() > maxEnd {
				maxEnd = p.Now()
			}
			mu.Unlock()
		})
	}
	run(t, clk)
	want := float64(n) * 2 / 100
	if math.Abs(maxEnd.Seconds()-want) > 1e-3 {
		t.Fatalf("last completion at %vs, want %vs", maxEnd.Seconds(), want)
	}
}

func TestStaggeredArrivalsConserveWork(t *testing.T) {
	clk := vclock.New()
	srv := NewServer(clk, ConstCapacity(64*MiB))
	const n = 16
	var mu sync.Mutex
	var totalBusy time.Duration
	var lastEnd time.Duration
	for i := 0; i < n; i++ {
		start := time.Duration(i) * 10 * time.Millisecond
		clk.Go("x", func(p *vclock.Proc) {
			p.Sleep(start)
			srv.Transfer(p, 8*MiB)
			mu.Lock()
			if p.Now() > lastEnd {
				lastEnd = p.Now()
			}
			mu.Unlock()
		})
	}
	run(t, clk)
	_ = totalBusy
	// Server is busy continuously from t=0: total work = 128 MiB at 64
	// MiB/s = 2s.
	if math.Abs(lastEnd.Seconds()-2.0) > 1e-3 {
		t.Fatalf("last completion at %vs, want 2s", lastEnd.Seconds())
	}
}

// TestWorkConservationProperty: for any batch of flows on a
// constant-capacity server, the last completion time equals total
// demand divided by capacity (processor sharing never idles while work
// remains), and no flow finishes before its fair minimum.
func TestWorkConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clk := vclock.New()
		const capacity = 100 * MiB
		srv := NewServer(clk, ConstCapacity(capacity))
		n := rng.Intn(20) + 1
		var total int64
		var mu sync.Mutex
		var last time.Duration
		for i := 0; i < n; i++ {
			size := int64(rng.Intn(64)+1) * MiB
			total += size
			clk.Go("f", func(p *vclock.Proc) {
				srv.Transfer(p, size)
				mu.Lock()
				if p.Now() > last {
					last = p.Now()
				}
				mu.Unlock()
			})
		}
		if err := clk.Wait(); err != nil {
			return false
		}
		want := float64(total) / capacity
		return math.Abs(last.Seconds()-want) < 1e-3*want+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
