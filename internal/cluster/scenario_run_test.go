package cluster

import (
	"errors"
	"fmt"
	"testing"

	"netrs/internal/faults"
	"netrs/internal/scenario"
	"netrs/internal/sim"
	"netrs/internal/workload"
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
	cfg.Scenario = scenario.Scenario{Diurnal: &workload.RateModulation{Cycles: 0}}
	if _, err := Run(cfg); !errors.Is(err, scenario.ErrInvalidScenario) {
		t.Fatalf("invalid scenario accepted: %v", err)
	}

	// A fault scenario runs at Shards 2: its events ride the barrier.
	cfg = smallConfig(SchemeNetRSToR)
	cfg.Requests = 1000
	cfg.Shards = 2
	cfg.Scenario = scenario.Scenario{Faults: []faults.Event{
		{Kind: faults.KindServerCrash, AtMs: 5, Server: 0, DurationMs: 5},
	}}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("fault scenario refused at shards 2: %v", err)
	}

	cfg = smallConfig(SchemeNetRSToR)
	cfg.Scenario = scenario.Scenario{SlowRacks: []scenario.SlowRack{{Rack: 9999, ExtraMs: 1}}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("out-of-topology rack accepted")
	}
}

// faultProbe is the runner's fault surface with a note of the completion
// count, the clock and the last completion instant at each applied fault.
type faultProbe struct {
	*runner
	applied []faultAt
}

type faultAt struct {
	count    int
	at, last sim.Time
}

func (f *faultProbe) note() {
	last := sim.Time(0)
	for _, st := range f.parts {
		last = max(last, st.lastDone)
	}
	f.applied = append(f.applied, faultAt{f.completedTotal(), f.eng.Now(), last})
}

func (f *faultProbe) CrashRSNode(target string) (uint16, error) {
	f.note()
	return f.runner.CrashRSNode(target)
}

func (f *faultProbe) RecoverRSNode(target string) (uint16, error) {
	f.note()
	return f.runner.RecoverRSNode(target)
}

func (f *faultProbe) SetServerSlowdown(server int, mult float64) error {
	f.note()
	return f.runner.SetServerSlowdown(server, mult)
}

func (f *faultProbe) CrashServer(server int) error {
	f.note()
	return f.runner.CrashServer(server)
}

func (f *faultProbe) RestartServer(server int) error {
	f.note()
	return f.runner.RestartServer(server)
}

func (f *faultProbe) SetRackLinkDelay(rack int, extra sim.Time) error {
	f.note()
	return f.runner.SetRackLinkDelay(rack, extra)
}

// TestFaultThresholdsFireAtCompletionInstant runs every fault kind at
// completion fractions on one partition and on the pod partitions of
// Shards 2. The barrier hook fires each threshold at the instant of the
// completion that crossed it, after that instant's events in every
// partition (the run steps while one is pending), with the run-wide count
// at or past the threshold; two thresholds on one count fire at the same
// barrier in declaration order. Every fault applies, and none is pending
// when the run ends.
func TestFaultThresholdsFireAtCompletionInstant(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			checkThresholdsFireAtCompletionInstant(t, shards)
		})
	}
}

func checkThresholdsFireAtCompletionInstant(t *testing.T, shards int) {
	events := []faults.Event{
		{Kind: faults.KindServerSlowdown, AtFraction: 0.2, Server: 1, Multiplier: 3},
		{Kind: faults.KindServerCrash, AtFraction: 0.3, Server: 2},
		{Kind: faults.KindLinkDelay, AtFraction: 0.3, Rack: 0, ExtraMs: 0.2},
		{Kind: faults.KindRSNodeCrash, AtFraction: 0.4, RSNode: faults.TargetBusiest},
		{Kind: faults.KindRSNodeRecover, AtFraction: 0.5, RSNode: faults.TargetFailed},
		{Kind: faults.KindServerRestart, AtFraction: 0.6, Server: 2},
	}
	cfg := smallConfig(SchemeNetRSILP)
	cfg.Scenario = scenario.Scenario{Faults: events}
	cfg.Shards = shards
	r := &runner{cfg: cfg}
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	probe := &faultProbe{runner: r}
	var err error
	if r.injector, err = faults.NewInjector(r.set.ScheduleGlobal, probe, r.total, events, r.recordError); err != nil {
		t.Fatal(err)
	}
	if err := r.start(); err != nil {
		t.Fatal(err)
	}
	if err := r.drive(); err != nil {
		t.Fatal(err)
	}
	if len(r.errs) > 0 {
		t.Fatalf("faults failed to apply: %v", r.errs)
	}
	if r.injector.Pending() {
		t.Fatal("a threshold is still pending after the run")
	}
	if len(probe.applied) != len(events) {
		t.Fatalf("%d faults applied, want %d", len(probe.applied), len(events))
	}
	for i, ev := range events {
		got, threshold := probe.applied[i], int(ev.AtFraction*float64(r.total))
		if got.count < threshold || got.at != got.last {
			t.Errorf("%s at %v: count %d (threshold %d), last completion at %v; want the crossing completion's instant",
				ev.Kind, got.at, got.count, threshold, got.last)
		}
	}
	if probe.applied[1] != probe.applied[2] {
		t.Errorf("thresholds on one count fired apart: %+v and %+v", probe.applied[1], probe.applied[2])
	}
}
