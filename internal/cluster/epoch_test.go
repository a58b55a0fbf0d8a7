package cluster

// Tests for controller epochs (Config.ControllerInterval): the runner's
// periodic re-solve loop, its exception paths, and the rate normalization
// they share with the initial ILP deployment.

import (
	"strings"
	"testing"

	"netrs/internal/sim"
)

// TestNormalizeRatesSymmetric pins the symmetric normalization: measured
// totals are scaled to the target in both directions. The one-sided
// predecessor only scaled up, so an over-measured window (a queue-drain
// burst compressed into a short span) fed the solver inflated utilization.
func TestNormalizeRatesSymmetric(t *testing.T) {
	mk := func() map[int][3]float64 {
		return map[int][3]float64{0: {100, 0, 0}, 1: {0, 50, 50}}
	}

	rates := mk()
	if measured := normalizeRates(rates, 400); measured != 200 {
		t.Fatalf("measured = %v, want 200", measured)
	}
	if rates[0] != [3]float64{200, 0, 0} || rates[1] != [3]float64{0, 100, 100} {
		t.Fatalf("up-scaled rates = %v", rates)
	}

	rates = mk()
	normalizeRates(rates, 100)
	if rates[0] != [3]float64{50, 0, 0} || rates[1] != [3]float64{0, 25, 25} {
		t.Fatalf("down-scaled rates = %v", rates)
	}

	// A nonpositive target or an empty window leaves the rates alone.
	rates = mk()
	normalizeRates(rates, 0)
	if rates[0] != [3]float64{100, 0, 0} {
		t.Fatalf("zero-target scaling changed rates to %v", rates)
	}
	if measured := normalizeRates(map[int][3]float64{}, 100); measured != 0 {
		t.Fatalf("empty-window measured = %v, want 0", measured)
	}
}

func TestEpochConfigValidation(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.Scheme = SchemeNetRSILP; c.ControllerInterval = -1 },
		func(c *Config) { c.Scheme = SchemeNetRSToR; c.ControllerInterval = 10 * sim.Millisecond },
		func(c *Config) { c.DemandSkew = 0.9; c.DemandShiftAt = 1 },
		func(c *Config) { c.DemandSkew = 0.9; c.DemandShiftAt = 0.5 }, // fraction missing
		func(c *Config) { c.DemandSkew = 0.9; c.DemandShiftAt = 0.5; c.DemandShiftFraction = 2 },
		func(c *Config) { c.DemandShiftAt = 0.5; c.DemandShiftFraction = 1 }, // skew missing
	}
	for i, mod := range mods {
		cfg := smallConfig(SchemeNetRSILP)
		mod(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// epochConfig is smallConfig with skewed demand and controller epochs on.
func epochConfig() Config {
	cfg := smallConfig(SchemeNetRSILP)
	cfg.DemandSkew = 0.9
	cfg.ControllerInterval = 20 * sim.Millisecond
	return cfg
}

// TestEpochsRecordedAndRepeatable runs an epoch-enabled experiment twice
// and pins the recorded plan history: epochs fire, their deterministic
// fields repeat bit-for-bit, and the wall-clock solve time stays out of
// everything the digests cover.
func TestEpochsRecordedAndRepeatable(t *testing.T) {
	res1, err := Run(epochConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Epochs) < 2 {
		t.Fatalf("only %d epochs recorded", len(res1.Epochs))
	}
	if len(res1.Errors) != 0 {
		t.Fatalf("epoch run recorded errors %v", res1.Errors)
	}
	for i, ep := range res1.Epochs {
		if ep.AtMs <= 0 {
			t.Fatalf("epoch %d at %v ms", i, ep.AtMs)
		}
		if !ep.Kept && ep.RSNodes < 1 {
			t.Fatalf("epoch %d deployed a plan with %d RSNodes", i, ep.RSNodes)
		}
	}
	res2, err := Run(epochConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Epochs) != len(res1.Epochs) {
		t.Fatalf("epoch counts differ: %d vs %d", len(res1.Epochs), len(res2.Epochs))
	}
	for i := range res1.Epochs {
		a, b := res1.Epochs[i], res2.Epochs[i]
		a.SolveWallMs, b.SolveWallMs = 0, 0 // wall clock, legitimately varies
		if a != b {
			t.Fatalf("epoch %d differs across identical runs: %+v vs %+v", i, a, b)
		}
	}
}

// TestEpochsDisabledByDefault pins the zero-value contract: without
// ControllerInterval the runner records no epochs at all.
func TestEpochsDisabledByDefault(t *testing.T) {
	res, err := Run(smallConfig(SchemeNetRSILP))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 0 {
		t.Fatalf("epochs recorded with ControllerInterval=0: %+v", res.Epochs)
	}
}

// TestEpochInfeasibleKeepsPlanAndRecordsError drives the mid-run
// exception path end to end: with the accelerator capacity floored below
// any group's rate, the initial (DRS-allowed) solve degrades every group,
// and each epoch's stricter re-solve is infeasible — the run survives,
// keeps the standing plan, and records one Result.Errors entry per failed
// epoch.
func TestEpochInfeasibleKeepsPlanAndRecordsError(t *testing.T) {
	cfg := epochConfig()
	cfg.AccelMaxUtilization = 1e-6
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) == 0 {
		t.Fatal("no epochs recorded")
	}
	if len(res.Errors) == 0 {
		t.Fatal("infeasible epochs recorded no errors")
	}
	for i, e := range res.Errors {
		if !strings.Contains(e, "controller epoch") || !strings.Contains(e, "keeping plan") {
			t.Fatalf("error %d = %q, want an epoch keep-plan record", i, e)
		}
	}
	for i, ep := range res.Epochs {
		if !ep.Kept {
			t.Fatalf("epoch %d deployed a plan despite infeasibility: %+v", i, ep)
		}
		if ep.MovedGroups != 0 {
			t.Fatalf("epoch %d moved %d groups", i, ep.MovedGroups)
		}
	}
	if res.DegradedGroups == 0 {
		t.Fatal("expected the initial all-DRS plan to stay in force")
	}
}

// TestEpochDuringFaultReconverges pins the §III-C interaction at cluster
// level: the busiest RSNode crashes and never recovers. A static plan
// stays degraded to the end of the run, while controller epochs re-place
// the failed node's groups onto live operators — the failed operator is
// not resurrected, and the DRS share returns to zero.
func TestEpochDuringFaultReconverges(t *testing.T) {
	base := epochConfig()
	base.TimelineBucket = 25 * sim.Millisecond
	base.Scenario.Faults = crashBusiestAt(0.3)

	static := base
	static.ControllerInterval = 0
	sres, err := Run(static)
	if err != nil {
		t.Fatal(err)
	}
	if sres.FailedRSNode == 0 || sres.DegradedGroups == 0 {
		t.Fatalf("static run: failed RSNode %d, degraded groups %d — crash did not stick",
			sres.FailedRSNode, sres.DegradedGroups)
	}

	eres, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if eres.FailedRSNode == 0 {
		t.Fatal("epoch run: crash did not take effect")
	}
	if len(eres.Errors) != 0 {
		t.Fatalf("epoch run recorded errors %v", eres.Errors)
	}
	if eres.DegradedGroups != 0 {
		t.Fatalf("epoch run ended with %d degraded groups; the epochs never re-placed them",
			eres.DegradedGroups)
	}
	if eres.DegradedResponses == 0 {
		t.Fatal("epoch run served no degraded responses at all — crash window invisible")
	}
	moved := 0
	for _, ep := range eres.Epochs {
		moved += ep.MovedGroups
	}
	if moved == 0 {
		t.Fatal("no epoch moved any group after the crash")
	}
	last := eres.Timeline[len(eres.Timeline)-1]
	if last.Count > 0 && last.DRSShare != 0 {
		t.Fatalf("epoch run still %v DRS in its final bucket", last.DRSShare)
	}
	// The static run, by contrast, is still degraded at the end.
	slast := sres.Timeline[len(sres.Timeline)-1]
	if slast.Count > 0 && slast.DRSShare == 0 {
		t.Fatal("static run's final bucket shows no DRS share; fault should persist")
	}
}
