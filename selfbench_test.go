package asyncio_test

import (
	"os"
	"testing"

	"asyncio/internal/experiments"
	"asyncio/internal/simbench"
)

// TestBenchRegression guards the simulator's own performance: it runs
// the self-benchmark fresh and compares per-event cost against the
// committed BENCH_simulator.json baseline with a 2× tolerance (wide
// enough for machine-to-machine variance, tight enough to catch an
// accidental O(n) regression in the event engine or a per-event
// allocation creeping back in). Only regressions fail — getting faster
// is fine; refresh the baseline with `asyncio-bench -selfbench` when
// the simulator legitimately changes.
func TestBenchRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("selfbench takes a few seconds; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("per-event timing limits are meaningless under the race detector's slowdown")
	}
	f, err := os.Open("BENCH_simulator.json")
	if err != nil {
		t.Fatalf("missing committed baseline: %v", err)
	}
	defer f.Close()
	base, err := simbench.ReadJSON(f)
	if err != nil {
		t.Fatalf("parsing baseline: %v", err)
	}

	fresh, err := simbench.Run(experiments.ReducedScale())
	if err != nil {
		t.Fatal(err)
	}

	const tolerance = 2.0
	// Absolute floors keep near-zero baselines (e.g. 0.00005
	// allocs/event on the pooled sleep path) from turning scheduler
	// noise into a 100× "regression".
	const nsFloor = 500.0
	const allocsFloor = 1.0

	for _, b := range base.Results {
		fr := fresh.Find(b.Name)
		if fr == nil {
			t.Errorf("%s: in baseline but not in fresh run (case renamed? refresh the baseline)", b.Name)
			continue
		}
		if limit := max2(b.NsPerEvent, nsFloor) * tolerance; fr.NsPerEvent > limit {
			t.Errorf("%s: %.0f ns/event, baseline %.0f (limit %.0f)",
				b.Name, fr.NsPerEvent, b.NsPerEvent, limit)
		}
		if limit := max2(b.AllocsPerEvent, allocsFloor) * tolerance; fr.AllocsPerEvent > limit {
			t.Errorf("%s: %.3f allocs/event, baseline %.3f (limit %.3f)",
				b.Name, fr.AllocsPerEvent, b.AllocsPerEvent, limit)
		}
		if fr.Events <= 0 {
			t.Errorf("%s: fresh run fired no simulator events", b.Name)
		}
		t.Logf("%s: %.0f ns/event (baseline %.0f), %.3f allocs/event (baseline %.3f), %d events",
			b.Name, fr.NsPerEvent, b.NsPerEvent, fr.AllocsPerEvent, b.AllocsPerEvent, fr.Events)
	}
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
