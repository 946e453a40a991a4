package exp

import (
	"testing"

	"manetsim/internal/core"
)

// The fan-out internals (first-error short-circuit, abort flags, worker
// slots, context cancellation) live in manetsim.Campaign and are pinned by
// the campaign tests at the repository root; here the Harness facade is
// exercised end to end through its exp-facing surface.

// TestRunAllFailsFastOnInvalidConfig exercises the fail-fast contract
// through the harness: an invalid config in a sweep reports its error.
func TestRunAllFailsFastOnInvalidConfig(t *testing.T) {
	h := NewHarness(BenchScale)
	cfgs := []core.Config{
		{Scenario: core.Chain(2).WithFlows(core.Flow{Src: 0, Dst: 99})}, // invalid flow
		chainCfg(2, rates[0], core.TransportSpec{Name: "vegas"}),
	}
	if _, err := h.RunAll(cfgs); err == nil {
		t.Fatal("invalid config did not fail the sweep")
	}
}

// TestRunAllAbortDoesNotPoisonCache runs a failing sweep and then the same
// valid config again: a skipped (aborted) run must not leave a poisoned
// cache entry behind.
func TestRunAllAbortDoesNotPoisonCache(t *testing.T) {
	h := NewHarness(BenchScale)
	h.Workers = 1
	good := chainCfg(2, rates[0], core.TransportSpec{Name: "vegas"})
	bad := core.Config{Scenario: core.Chain(2).WithFlows(core.Flow{Src: 0, Dst: 99})}
	if _, err := h.RunAll([]core.Config{bad, good, good, good}); err == nil {
		t.Fatal("failing sweep reported success")
	}
	res, err := h.Run(good)
	if err != nil {
		t.Fatalf("valid config failed after an aborted sweep: %v", err)
	}
	if res == nil || res.Delivered == 0 {
		t.Error("post-abort rerun returned an empty result")
	}
}
