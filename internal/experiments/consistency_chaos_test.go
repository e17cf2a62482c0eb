package experiments

import (
	"testing"
	"time"

	"asyncio/internal/core"
	"asyncio/internal/pfs"
	"asyncio/internal/systems"
	"asyncio/internal/vclock"
	"asyncio/internal/workloads/bdcats"
	"asyncio/internal/workloads/vpicio"
)

// checkedSpec builds the model's spec with the oracle enabled.
func checkedSpec(t *testing.T, model pfs.Model) *pfs.ConsistencySpec {
	t.Helper()
	sp, err := pfs.ParseConsistency(string(model) + ";check=1")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// runConsistencyChaosTrial executes crash-chaos trial i under the given
// consistency model and applies the oracle's invariants on top of the
// base harness's: the checker saw the run, found no visibility
// violations, and every write the model promised durable survives in
// the final image.
func runConsistencyChaosTrial(t *testing.T, i int, model pfs.Model) string {
	t.Helper()
	// Offset past the crash-chaos (base) suite so this fleet draws its
	// own (seed, fault-spec) tuples.
	cfg := chaosTrialConfig(i + 20_000)
	cfg.Consistency = checkedSpec(t, model)
	res, err := CrashTrial(cfg)
	if err != nil {
		t.Fatalf("trial %d (%s, %s): %v", i, model, cfg.FaultSpec, err)
	}
	if res.Checker == nil {
		t.Fatalf("trial %d (%s): no checker on a checked trial", i, model)
	}
	if err := res.Checker.Check(); err != nil {
		t.Fatalf("trial %d (%s, %s): visibility violation: %v", i, model, cfg.FaultSpec, err)
	}
	if err := res.Checker.VerifyDurable(res.Store); err != nil {
		t.Fatalf("trial %d (%s, %s, lastDurable=%d): durability violation: %v",
			i, model, cfg.FaultSpec, res.LastDurable, err)
	}
	if !res.Crashed {
		return "clean"
	}
	if res.RestartFresh {
		return "fresh-restart"
	}
	return "recovered"
}

// runConsistencyChaosFleet drives the kill schedule for one model.
func runConsistencyChaosFleet(t *testing.T, model pfs.Model) {
	trials := 500
	if testing.Short() {
		trials = 40
	}
	tags := make([]string, trials)
	if err := RunParallel(trials, func(i int) error {
		tags[i] = runConsistencyChaosTrial(t, i, model)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, tag := range tags {
		counts[tag]++
	}
	t.Logf("%s chaos outcomes over %d trials: %v", model, trials, counts)
	if counts["recovered"] == 0 || counts["fresh-restart"] == 0 {
		t.Fatalf("%s fleet missed a recovery path: %v", model, counts)
	}
}

// TestConsistencyChaos runs the 500-trial kill schedule once per model:
// zero visibility or durability violations.
func TestConsistencyChaos(t *testing.T) {
	for _, model := range consistencyModels {
		model := model
		t.Run(string(model), func(t *testing.T) {
			t.Parallel()
			runConsistencyChaosFleet(t, model)
		})
	}
}

// TestConsistencyInlineScenarios runs the oracle inline on the tier-1
// workload scenarios: VPIC-IO (write side) under every model × mode,
// and BD-CATS-IO (read side) under posix — all must come back clean,
// with the checker demonstrably engaged.
func TestConsistencyInlineScenarios(t *testing.T) {
	for _, model := range consistencyModels {
		for _, mode := range []core.Mode{core.ForceSync, core.ForceAsync} {
			cons := pfs.NewConsistency(checkedSpec(t, model))
			sys := systems.Summit(vclock.New(), 1, systems.WithConsistency(cons))
			if _, _, err := vpicio.Run(sys, vpicio.Config{
				Steps: 2, ComputeTime: time.Second, Mode: mode,
			}); err != nil {
				t.Fatalf("vpic %s %v: %v", model, mode, err)
			}
			if err := cons.Checker().Check(); err != nil {
				t.Fatalf("vpic %s %v: %v", model, mode, err)
			}
			if cons.Checker().Summary() == "consistency=off" {
				t.Fatalf("vpic %s %v: checker never engaged", model, mode)
			}
		}
	}
	cons := pfs.NewConsistency(checkedSpec(t, pfs.ModelPOSIX))
	sys := systems.Summit(vclock.New(), 1, systems.WithConsistency(cons))
	if _, err := bdcats.Run(sys, bdcats.Config{
		Steps: 2, ComputeTime: time.Second, Mode: core.ForceSync,
	}, nil); err != nil {
		t.Fatalf("bdcats posix: %v", err)
	}
	if err := cons.Checker().Check(); err != nil {
		t.Fatalf("bdcats posix: %v", err)
	}
}

// TestAblationConsistencySmoke exercises the registered experiment —
// including its strict-ordering and bandwidth-gain gates — end to end.
func TestAblationConsistencySmoke(t *testing.T) {
	tab, err := AblationConsistency(ReducedScale())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.SeriesByName("sync vis-share"); !ok {
		t.Fatalf("missing series: %+v", tab.Series)
	}
}
