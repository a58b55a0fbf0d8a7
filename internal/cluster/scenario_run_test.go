package cluster

import (
	"errors"
	"testing"

	"netrs/internal/faults"
	"netrs/internal/scenario"
)

// TestScenarioBuiltinsRun executes every built-in scenario end to end
// under NetRS-ToR: each must complete and produce sane latency stats.
func TestScenarioBuiltinsRun(t *testing.T) {
	for _, scn := range scenario.Builtins() {
		scn := scn
		t.Run(scn.Name, func(t *testing.T) {
			t.Parallel()
			cfg := smallConfig(SchemeNetRSToR)
			cfg.Requests = 2000
			cfg.Scenario = scn
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Completed < cfg.Requests || res.Summary.MeanMs <= 0 {
				t.Fatalf("scenario run incomplete: completed=%d mean=%v", res.Completed, res.Summary.MeanMs)
			}
		})
	}
}

// TestScenarioEmptyIsBitIdentical: a steady (empty) scenario consumes no
// RNG streams and installs no hooks, so it reproduces the scenario-free
// run exactly.
func TestScenarioEmptyIsBitIdentical(t *testing.T) {
	cfg := smallConfig(SchemeNetRSToR)
	cfg.Requests = 2000
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = scenario.Scenario{Name: "steady"}
	steady, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Summary != steady.Summary || plain.Completed != steady.Completed {
		t.Fatalf("steady scenario perturbed the run:\nplain  %+v\nsteady %+v", plain.Summary, steady.Summary)
	}
}

// TestScenarioShardedMatchesSequential: shard-safe scenarios reproduce
// the single-partition run's digest-relevant numbers at any shard count.
func TestScenarioShardedMatchesSequential(t *testing.T) {
	for _, name := range []string{"diurnal", "flash-crowd", "slow-rack", "heterogeneous"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			scn, err := scenario.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := smallConfig(SchemeNetRSToR)
			cfg.Requests = 1500
			cfg.Scenario = scn
			seq, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Shards = 4
			sharded, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if seq.Summary != sharded.Summary || seq.Completed != sharded.Completed {
				t.Fatalf("sharded scenario diverged:\nseq     %+v\nsharded %+v", seq.Summary, sharded.Summary)
			}
		})
	}
}

// TestScenarioSlowdownShowsUp: the heterogeneous scenario's slow class
// must raise mean latency versus the steady baseline.
func TestScenarioSlowdownShowsUp(t *testing.T) {
	cfg := smallConfig(SchemeNetRSToR)
	cfg.Requests = 2000
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = scenario.Scenario{
		Name:          "all-slow",
		Heterogeneous: []scenario.ServerClass{{Fraction: 1, Multiplier: 3}},
	}
	slow, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Summary.MeanMs <= base.Summary.MeanMs {
		t.Fatalf("3× slower servers did not raise mean latency: %v vs %v",
			slow.Summary.MeanMs, base.Summary.MeanMs)
	}
}

func TestScenarioConfigValidation(t *testing.T) {
	cfg := smallConfig(SchemeNetRSToR)
	cfg.Scenario = scenario.Scenario{Diurnal: &scenario.Diurnal{Cycles: 0}}
	if _, err := Run(cfg); !errors.Is(err, scenario.ErrInvalidScenario) {
		t.Fatalf("invalid scenario accepted: %v", err)
	}

	cfg = smallConfig(SchemeNetRSToR)
	cfg.Shards = 2
	cfg.Scenario = scenario.Scenario{Faults: []faults.Event{
		{Kind: faults.KindServerCrash, AtMs: 5, Server: 0},
	}}
	if _, err := Run(cfg); !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("shard-unsafe scenario accepted on shards: %v", err)
	}

	cfg = smallConfig(SchemeNetRSToR)
	cfg.Scenario = scenario.Scenario{SlowRacks: []scenario.SlowRack{{Rack: 9999, ExtraMs: 1}}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("out-of-topology rack accepted")
	}
}
