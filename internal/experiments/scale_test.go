package experiments

import (
	"os"
	"testing"

	"asyncio/internal/pfs"
)

// TestRaceAtScale runs one VPIC-IO sweep point at 4096 ranks (128
// Cori-Haswell nodes, 32 ranks each) — both modes, through the parallel
// driver. At this rank count the engine multiplexes thousands of procs
// over one clock, which is exactly where a locking mistake in the
// batched-wakeup or pooled-timer paths would surface; CI runs it under
// -race. Gated behind ASYNCIO_SCALE_TEST because it simulates ~40× more
// ranks than the ordinary test matrix.
func TestRaceAtScale(t *testing.T) { raceAtScale(t) }

// TestRaceAtScaleConsistency reruns the 4096-rank point with the POSIX
// consistency model and its checker enabled on every generated system:
// thousands of ranks recording writes into one oracle is exactly where
// a locking mistake in the checker's recorder would surface under
// -race. CI runs it in both halves of the race matrix.
func TestRaceAtScaleConsistency(t *testing.T) {
	sp, err := pfs.ParseConsistency("posix;check=1")
	if err != nil {
		t.Fatal(err)
	}
	SetDefaultConsistency(sp)
	defer SetDefaultConsistency(nil)
	raceAtScale(t)
}

func raceAtScale(t *testing.T) {
	t.Helper()
	if os.Getenv("ASYNCIO_SCALE_TEST") == "" {
		t.Skip("set ASYNCIO_SCALE_TEST=1 to run the 4096-rank point")
	}
	sc := Scale{CoriNodes: []int{128}, SummitNodes: []int{128}, Steps: 2, Days: 1}
	d, err := SimulateSweep("fig3b", sc)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := AssembleSweep(d)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSeries(t, tab, "sync")
	if got := s.X[len(s.X)-1]; got != 4096 {
		t.Fatalf("expected the point to run at 4096 ranks, got %v", got)
	}
	a := mustSeries(t, tab, "async")
	if a.Y[len(a.Y)-1] <= s.Y[len(s.Y)-1] {
		t.Errorf("async rate %.2f ≤ sync rate %.2f at 4096 ranks; expected async to win",
			a.Y[len(a.Y)-1], s.Y[len(s.Y)-1])
	}
}
