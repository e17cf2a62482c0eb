package experiments

import (
	"fmt"
	"testing"
	"time"

	"asyncio/internal/core"
	"asyncio/internal/pfs"
)

// chaosTrialConfig builds the i-th chaos trial: a tiny VPIC-IO run with
// a seeded crash whose target, instant, mode, durability model, and
// checkpoint interval all derive deterministically from the trial index.
func chaosTrialConfig(i int) CrashTrialConfig {
	// Cheap deterministic mixing (splitmix64) so neighboring trials get
	// unrelated draws without math/rand.
	mix := func(k uint64) uint64 {
		z := uint64(i+1)*0x9E3779B97F4A7C15 + k*0xBF58476D1CE4E5B9
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	const steps = 4
	// Epochs are ~1 s of compute plus I/O; the run ends around 5 s. Crash
	// times span [200ms, 6s] so some trials crash in epoch 0 (before any
	// checkpoint), most mid-run, and a few after completion (no-op).
	crashAt := 200*time.Millisecond + time.Duration(mix(1)%5800)*time.Millisecond
	target := "crashrank"
	idx := int(mix(2) % 6) // Summit node hosts 6 ranks
	if mix(3)%4 == 0 {
		target = "crashnode"
		idx = 0
	}
	mode := core.ForceAsync
	if mix(4)%3 == 0 {
		mode = core.ForceSync
	}
	var durability pfs.DurabilityConfig
	if mix(5)%2 == 0 {
		durability = pfs.GPFSDurability(int64(mix(6)))
		durability.BlockSize = 256 // tiny blocks: real tearing at this scale
	} else {
		durability = pfs.LustreDurability(int64(mix(6)), 4)
		durability.StripeSize = 256
	}
	return CrashTrialConfig{
		Nodes:            1,
		Steps:            steps,
		ParticlesPerRank: 64, // 256 B per property per rank
		ComputeTime:      time.Second,
		Mode:             mode,
		CheckpointEvery:  1 + int(mix(7)%3),
		FaultSpec:        fmt.Sprintf("seed=%d;%s=%d@%s", int64(mix(8)%1000), target, idx, crashAt),
		Durability:       &durability,
		JournalPayload:   true,
	}
}

// runChaosTrial executes trial i and applies the harness's invariants:
// the trial never panics, every journal record is classified, and after
// scan + replay + restart the image is byte-identical to a crash-free
// run — or, when the crash outran every checkpoint, the restart rebuilt
// it from scratch. Returns a short outcome tag for aggregation.
func runChaosTrial(t *testing.T, i int) string {
	t.Helper()
	cfg := chaosTrialConfig(i)
	res, err := CrashTrial(cfg)
	if err != nil {
		t.Fatalf("trial %d (%s): %v", i, cfg.FaultSpec, err)
	}
	const ranks = 6
	if !res.Crashed {
		// Crash scheduled past the end: the run completed and flushed.
		if err := VerifyTrialImage(res.Store, ranks, cfg.Steps, cfg.ParticlesPerRank); err != nil {
			t.Fatalf("trial %d (%s): clean run image corrupt: %v", i, cfg.FaultSpec, err)
		}
		return "clean"
	}
	if !res.CrashRun.Aborted || len(res.CrashRun.Crashes) == 0 {
		t.Fatalf("trial %d: crashed without a crash record", i)
	}
	// No silent corruption: every journaled extent must be accounted for.
	if res.Scan == nil {
		t.Fatalf("trial %d: no scan report", i)
	}
	sum := res.Scan.Committed + res.Scan.Torn + res.Scan.Lost + res.Scan.Unverified
	if sum != len(res.Scan.Outcomes) {
		t.Fatalf("trial %d: scan counts unbalanced: %s", i, res.Scan.Summary())
	}
	// The recovered-and-restarted image must be byte-identical to a
	// crash-free run's: durable prefix from the checkpoints (plus journal
	// replay), the rest re-executed.
	if err := VerifyTrialImage(res.Store, ranks, cfg.Steps, cfg.ParticlesPerRank); err != nil {
		t.Fatalf("trial %d (%s, lastDurable=%d, fresh=%v, scan=%s): recovered image diverges: %v",
			i, cfg.FaultSpec, res.LastDurable, res.RestartFresh, res.Scan.Summary(), err)
	}
	if res.RestartFresh {
		return "fresh-restart"
	}
	return "recovered"
}

// TestCrashChaos drives the seeded crash-trial fleet: every trial must
// end in a byte-identical recovered image or a typed, classified loss —
// never a panic, never silent corruption.
func TestCrashChaos(t *testing.T) {
	trials := 500
	if testing.Short() {
		trials = 40
	}
	counts := make(map[string]int)
	type out struct{ tag string }
	outs := make([]out, trials)
	if err := RunParallel(trials, func(i int) error {
		outs[i].tag = runChaosTrial(t, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		counts[o.tag]++
	}
	t.Logf("chaos outcomes over %d trials: %v", trials, counts)
	if counts["recovered"] == 0 {
		t.Fatal("no trial exercised the checkpoint-recovery path")
	}
	if counts["fresh-restart"] == 0 {
		t.Fatal("no trial exercised the crash-before-first-checkpoint path")
	}
}

// TestCrashTrialDeterministic pins the chaos harness's replayability:
// identical trial configs produce byte-identical final images and
// identical scan classifications.
func TestCrashTrialDeterministic(t *testing.T) {
	for _, i := range []int{3, 17, 42} {
		cfg := chaosTrialConfig(i)
		a, err := CrashTrial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := CrashTrial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Crashed != b.Crashed || a.LastDurable != b.LastDurable || a.RestartFresh != b.RestartFresh {
			t.Fatalf("trial %d diverged: %+v vs %+v", i, a, b)
		}
		if a.Crashed && a.Scan.Summary() != b.Scan.Summary() {
			t.Fatalf("trial %d scan diverged: %s vs %s", i, a.Scan.Summary(), b.Scan.Summary())
		}
		if na, nb := a.Store.Size(), b.Store.Size(); na != nb {
			t.Fatalf("trial %d image sizes diverged: %d vs %d", i, na, nb)
		}
		ab := make([]byte, a.Store.Size())
		bb := make([]byte, b.Store.Size())
		if _, err := a.Store.ReadAt(ab, 0); err != nil && len(ab) > 0 {
			t.Fatal(err)
		}
		if _, err := b.Store.ReadAt(bb, 0); err != nil && len(bb) > 0 {
			t.Fatal(err)
		}
		for k := range ab {
			if ab[k] != bb[k] {
				t.Fatalf("trial %d images diverge at byte %d", i, k)
			}
		}
	}
}

// TestCrashSweepSmoke exercises the registered experiment end to end.
func TestCrashSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("crashsweep runs 30s-compute epochs")
	}
	tab, err := CrashSweep(ReducedScale())
	if err != nil {
		t.Fatal(err)
	}
	sy, ok1 := tab.SeriesByName("sync")
	ay, ok2 := tab.SeriesByName("async")
	if !ok1 || !ok2 {
		t.Fatalf("missing series: %+v", tab.Series)
	}
	// Longer checkpoint intervals cannot lose fewer epochs.
	for _, s := range []Series{sy, ay} {
		for k := 1; k < len(s.Y); k++ {
			if s.Y[k] < s.Y[k-1] {
				t.Fatalf("%s: epochs lost decreased with a longer interval: %v", s.Name, s.Y)
			}
		}
	}
}
