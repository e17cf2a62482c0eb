package experiments

import (
	"errors"
	"fmt"
	"testing"

	"asyncio/internal/pfs"
)

// consistencyOutcome classifies one checked trial: either the oracle is
// clean, or it reports a *typed* model violation. Anything else — a
// harness error, an untyped checker error, a panic — fails the
// property.
func consistencyOutcome(t *testing.T, i int, model pfs.Model, res *CrashTrialResult) string {
	t.Helper()
	if res.Checker == nil {
		t.Fatalf("trial %d (%s): checked trial carries no checker", i, model)
	}
	verdict := "clean"
	if err := res.Checker.Check(); err != nil {
		var verr *pfs.ViolationError
		if !errors.As(err, &verr) {
			t.Fatalf("trial %d (%s): untyped checker error: %v", i, model, err)
		}
		verdict = "violation:" + verr.Error()
	}
	if err := res.Checker.VerifyDurable(res.Store); err != nil {
		var verr *pfs.ViolationError
		if !errors.As(err, &verr) {
			t.Fatalf("trial %d (%s): untyped durability error: %v", i, model, err)
		}
		verdict += " durability:" + verr.Error()
	}
	return verdict
}

// TestConsistencyProperty is the model-spectrum property suite: 1000
// random (seed, fault-spec, durability, checkpoint-interval) tuples
// cycled across all four consistency models. Every trial must either
// come back checker-clean or fail with a typed model violation.
func TestConsistencyProperty(t *testing.T) {
	trials := 1000
	if testing.Short() {
		trials = 40
	}
	if err := RunParallel(trials, func(i int) error {
		model := consistencyModels[i%len(consistencyModels)]
		// Offset past the base chaos (+0) and consistency-chaos (+20k)
		// suites' seeds.
		cfg := chaosTrialConfig(i + 30_000)
		cfg.Consistency = checkedSpec(t, model)
		res, err := CrashTrial(cfg)
		if err != nil {
			return fmt.Errorf("trial %d (%s, %s): %w", i, model, cfg.FaultSpec, err)
		}
		consistencyOutcome(t, i, model, res)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
