package amr_test

import (
	"testing"

	"samrdlb/internal/amr"
	"samrdlb/internal/engine"
	"samrdlb/internal/machine"
	"samrdlb/internal/workload"
)

// TestPlanCheckOracleDetectsCorruption pins that engine.Options.Check
// arms the plan oracle on the run's hierarchy: corrupt one cached
// message and the next serve must panic.
func TestPlanCheckOracleDetectsCorruption(t *testing.T) {
	r := engine.New(machine.WanPair(2, nil), workload.NewShockPool3D(16, 2), engine.Options{
		Steps: 1, MaxLevel: 1, Check: true,
	})
	r.Run()
	h := r.Hierarchy()
	if plan := h.GhostPlanCached(0); len(plan) == 0 {
		t.Fatal("expected a non-empty ghost plan")
	}
	amr.CorruptGhostPlan(h, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("the plan oracle served a corrupted plan without panicking")
		}
	}()
	h.GhostPlanCached(0)
}
