package cluster

import (
	"errors"
	"reflect"
	"testing"

	"netrs/internal/faults"
	"netrs/internal/golden"
	"netrs/internal/scenario"
	"netrs/internal/sim"
)

// shardedTestConfig is a small experiment exercising the full feature set
// the runner supports at Shards > 1: NetRS-ILP with controller epochs and
// a mid-run demand shift.
func shardedTestConfig() Config {
	cfg := DefaultConfig()
	cfg.FatTreeK = 6
	cfg.Servers = 18
	cfg.Clients = 30
	cfg.Generators = 12
	cfg.Requests = 2000
	cfg.Scheme = SchemeNetRSILP
	cfg.ControllerInterval = 100 * 1_000_000 // 100ms
	cfg.DemandSkew = 0.6
	cfg.DemandShiftAt = 0.4
	cfg.DemandShiftFraction = 0.5
	return cfg
}

// stripWallClock zeroes the diagnostic-only wall-time field so epoch
// records compare deterministically.
func stripWallClock(epochs []EpochRecord) []EpochRecord {
	out := append([]EpochRecord(nil), epochs...)
	for i := range out {
		out[i].SolveWallMs = 0
	}
	return out
}

// TestShardedEpochsMatchSequential runs a NetRS-ILP experiment with
// controller epochs and a demand shift on the sequential engine and on the
// sharded engine at several worker counts, asserting the full Result —
// including the per-epoch plan history and any recorded solve errors — is
// identical.
func TestShardedEpochsMatchSequential(t *testing.T) {
	base := shardedTestConfig()
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Epochs) == 0 {
		t.Fatal("sequential run recorded no epochs; the test exercises nothing")
	}
	for _, shards := range []int{2, 4} {
		cfg := base
		cfg.Shards = shards
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		if got.Summary != want.Summary {
			t.Errorf("shards %d: summary %+v, want %+v", shards, got.Summary, want.Summary)
		}
		if got.Completed != want.Completed || got.Emitted != want.Emitted {
			t.Errorf("shards %d: completed/emitted %d/%d, want %d/%d",
				shards, got.Completed, got.Emitted, want.Completed, want.Emitted)
		}
		if got.SimulatedSpan != want.SimulatedSpan {
			t.Errorf("shards %d: span %v, want %v", shards, got.SimulatedSpan, want.SimulatedSpan)
		}
		if got.RSNodes != want.RSNodes || got.DegradedGroups != want.DegradedGroups ||
			got.PlanMethod != want.PlanMethod {
			t.Errorf("shards %d: plan (%d,%d,%s), want (%d,%d,%s)", shards,
				got.RSNodes, got.DegradedGroups, got.PlanMethod,
				want.RSNodes, want.DegradedGroups, want.PlanMethod)
		}
		if got.OperatorSelections != want.OperatorSelections ||
			got.DegradedResponses != want.DegradedResponses {
			t.Errorf("shards %d: selections/degraded %d/%d, want %d/%d", shards,
				got.OperatorSelections, got.DegradedResponses,
				want.OperatorSelections, want.DegradedResponses)
		}
		if got.MaxAccelUtilization != want.MaxAccelUtilization ||
			got.ServerLoadCV != want.ServerLoadCV || got.QueueCVMean != want.QueueCVMean {
			t.Errorf("shards %d: float stats (%v,%v,%v), want (%v,%v,%v)", shards,
				got.MaxAccelUtilization, got.ServerLoadCV, got.QueueCVMean,
				want.MaxAccelUtilization, want.ServerLoadCV, want.QueueCVMean)
		}
		if !reflect.DeepEqual(stripWallClock(got.Epochs), stripWallClock(want.Epochs)) {
			t.Errorf("shards %d: epochs %+v, want %+v", shards,
				stripWallClock(got.Epochs), stripWallClock(want.Epochs))
		}
		if !reflect.DeepEqual(got.Errors, want.Errors) {
			t.Errorf("shards %d: errors %v, want %v", shards, got.Errors, want.Errors)
		}
	}
}

// TestShardedReplayMatchesSequential replays one recorded trace at
// Shards 1, 2, and 4: the replayed arrivals take the same pre-generated
// path as the sharded synthetic workload, so every partition count must
// give the sequential result.
func TestShardedReplayMatchesSequential(t *testing.T) {
	path := recordTestTrace(t)
	for _, scheme := range []Scheme{SchemeCliRS, SchemeNetRSToR, SchemeNetRSILP, SchemeNetRSCache} {
		base := smallConfig(scheme)
		base.Scenario = scenario.Scenario{ReplayTracePath: path}
		if scheme == SchemeNetRSCache {
			base.CacheBytes = 64 << 10
		}
		want, err := Run(base)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		for _, shards := range []int{2, 4} {
			cfg := base
			cfg.Shards = shards
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s shards %d: %v", scheme, shards, err)
			}
			if got.Summary != want.Summary || got.SimulatedSpan != want.SimulatedSpan ||
				got.OperatorSelections != want.OperatorSelections {
				t.Errorf("%s shards %d: summary %+v span %v selections %d, want %+v %v %d",
					scheme, shards, got.Summary, got.SimulatedSpan, got.OperatorSelections,
					want.Summary, want.SimulatedSpan, want.OperatorSelections)
			}
		}
	}
}

// TestShardedConfigValidation pins the one feature refused at Shards > 1:
// CliRS-R95 with CancelDuplicates. Cancellation withdraws a duplicate's
// loser from its server's queue through the run-wide tickets map, and
// that server may sit in another partition, which no partition may read
// or edit mid-window. Every other feature is accepted at Shards 2: the
// duplicates themselves (their packet IDs are Index+1+total, with no
// shared counter), the latency trace, the timeline and faults.
func TestShardedConfigValidation(t *testing.T) {
	r95 := func(c *Config) { c.Scheme = SchemeCliRSR95 }
	cfg := DefaultConfig()
	cfg.Shards = 2
	r95(&cfg)
	cfg.CancelDuplicates = true
	if err := cfg.validate(); !errors.Is(err, ErrInvalidParam) {
		t.Errorf("r95 cancellation: validate() = %v, want ErrInvalidParam", err)
	}
	cfg.Shards = 1
	if err := cfg.validate(); err != nil {
		t.Errorf("r95 cancellation: sequential validate() = %v, want nil", err)
	}

	accepted := map[string]func(*Config){
		"r95 scheme":     r95,
		"latency trace":  func(c *Config) { c.KeepLatencyTrace = true },
		"timeline":       func(c *Config) { c.TimelineBucket = 1_000_000 },
		"rsnode failure": func(c *Config) { c.Scenario.Faults = crashBusiestAt(0.5) },
	}
	for name, mutate := range accepted {
		cfg := DefaultConfig()
		cfg.Shards = 2
		mutate(&cfg)
		if err := cfg.validate(); err != nil {
			t.Errorf("%s: validate() at shards 2 = %v, want nil", name, err)
		}
	}
	cfg = DefaultConfig()
	cfg.Shards = -1
	if err := cfg.validate(); !errors.Is(err, ErrInvalidParam) {
		t.Errorf("negative shards: validate() = %v, want ErrInvalidParam", err)
	}
}

// TestShardedFaultsMatchSequential runs the features that used to need a
// single partition at Shards 1, 2 and 4 over five seeds, and checks that
// every Result field golden.Dump renders agrees: CliRS-R95 without
// cancellation, plain and faulted; each paper scheme with the latency
// trace and the timeline on; every fault kind at a completion fraction,
// with durations whose inverses land mid-run; and a timed server crash
// whose restart falls on the servers' first fluctuation redraw (50 ms),
// together with a second server's crash. A fault global runs before every
// partition event at its instant, so a tie with a redraw resolves alike
// at every partition count.
func TestShardedFaultsMatchSequential(t *testing.T) {
	withFaults := func(events ...faults.Event) func(*Config) {
		return func(c *Config) {
			c.Scenario.Faults = events
			c.TimelineBucket = 10 * sim.Millisecond
		}
	}
	traced := func(c *Config) {
		c.KeepLatencyTrace = true
		c.TimelineBucket = 10 * sim.Millisecond
	}
	cases := []struct {
		name   string
		scheme Scheme
		mutate func(*Config)
	}{
		{"r95", SchemeCliRSR95, func(*Config) {}},
		{"r95-faulted", SchemeCliRSR95, withFaults(
			faults.Event{Kind: faults.KindServerSlowdown, AtFraction: 0.2, Server: 3, Multiplier: 4, DurationMs: 15},
			faults.Event{Kind: faults.KindServerCrash, AtMs: 12, Server: 5, DurationMs: 10},
		)},
		{"trace-CliRS", SchemeCliRS, traced},
		{"trace-CliRS-R95", SchemeCliRSR95, traced},
		{"trace-NetRS-ToR", SchemeNetRSToR, traced},
		{"trace-NetRS-ILP", SchemeNetRSILP, traced},
		{"fractions", SchemeNetRSILP, withFaults(
			faults.Event{Kind: faults.KindRSNodeCrash, AtFraction: 0.3, RSNode: faults.TargetBusiest, DurationMs: 10},
			faults.Event{Kind: faults.KindServerSlowdown, AtFraction: 0.35, Server: 2, Multiplier: 5, DurationMs: 10},
			faults.Event{Kind: faults.KindServerCrash, AtFraction: 0.4, Server: 6, DurationMs: 8},
			faults.Event{Kind: faults.KindLinkDelay, AtFraction: 0.45, Rack: 1, ExtraMs: 0.3, DurationMs: 12},
		)},
		{"restart-on-redraw", SchemeNetRSToR, withFaults(
			faults.Event{Kind: faults.KindServerCrash, AtMs: 30, Server: 4, DurationMs: 20},
			faults.Event{Kind: faults.KindServerCrash, AtMs: 50, Server: 7, DurationMs: 25},
		)},
	}
	seeds := []uint64{1, 2, 3, 4, 5}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				cfg := smallConfig(tc.scheme)
				cfg.Requests = 1500
				cfg.Seed = seed
				tc.mutate(&cfg)
				var want string
				for _, shards := range []int{1, 2, 4} {
					cfg.Shards = shards
					res, err := Run(cfg)
					if err != nil {
						t.Fatalf("seed %d shards %d: %v", seed, shards, err)
					}
					if shards == 1 {
						checkFeaturesRan(t, cfg, res)
						want = golden.Dump(res)
						continue
					}
					if got := golden.Dump(res); got != want {
						t.Errorf("seed %d: shards %d differs from shards 1:\n%s", seed, shards, golden.Diff(want, got))
					}
				}
			}
		})
	}
}

// checkFeaturesRan fails when a sequential run did not exercise what its
// config asks for, so that agreement across shard counts is not vacuous.
func checkFeaturesRan(t *testing.T, cfg Config, res Result) {
	t.Helper()
	if len(res.Errors) > 0 {
		t.Fatalf("seed %d: fault errors %v", cfg.Seed, res.Errors)
	}
	if cfg.KeepLatencyTrace {
		if len(res.TraceMs) != cfg.Requests {
			t.Fatalf("seed %d: %d trace entries, want %d", cfg.Seed, len(res.TraceMs), cfg.Requests)
		}
		for i, v := range res.TraceMs {
			if v <= 0 {
				t.Fatalf("seed %d: trace entry %d is %v, never written", cfg.Seed, i, v)
			}
		}
	}
	if cfg.TimelineBucket > 0 && len(res.Timeline) == 0 {
		t.Fatalf("seed %d: no timeline", cfg.Seed)
	}
	for _, ev := range cfg.Scenario.Faults {
		if end := sim.FromMs(ev.AtMs + ev.DurationMs); end >= res.SimulatedSpan {
			t.Fatalf("seed %d: %s ends at %v, after the run's %v", cfg.Seed, ev, end, res.SimulatedSpan)
		}
	}
	if cfg.Scheme == SchemeCliRSR95 && res.RedundantSent == 0 {
		t.Fatalf("seed %d: no CliRS-R95 duplicates", cfg.Seed)
	}
}

// TestShardedHeapEventsMatchSequential pins where the runner's events
// run. At every partition count the arrivals replay through the
// partitions' streams, one stream event per arrival and none on the
// agenda heap, and at Shards=2 cross-partition hops land in the exchange
// inbox, so neither touches the heap: heap events per request, arrivals
// excluded on both sides, stay within 0.1 of the Shards=1 figure (both
// read 1.033 here). Before the inbox and the streams, the exchange and
// the arrivals put the k=32 preset at 7.4 heap events per request against
// 2.1.
func TestShardedHeapEventsMatchSequential(t *testing.T) {
	base := DefaultConfig()
	base.FatTreeK = 8
	base.Servers = 32
	base.Clients = 64
	base.Generators = 16
	base.Requests = 4000
	base.Scheme = SchemeNetRSILP
	total := uint64(base.Requests) + uint64(base.WarmupFraction*float64(base.Requests))
	run := func(shards int) sim.EventCounts {
		t.Helper()
		cfg := base
		cfg.Shards = shards
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		if res.Events.Cursor != total {
			t.Errorf("shards %d: %+v, want %d stream events", shards, res.Events, total)
		}
		return res.Events
	}
	seq, shd := run(1), run(2)
	if seq.Inbox != 0 || shd.Inbox == 0 {
		t.Errorf("inbox events: shards 1 %d, shards 2 %d; want none at 1 and some at 2", seq.Inbox, shd.Inbox)
	}
	seqHeap, shdHeap := float64(seq.Heap)/float64(total), float64(shd.Heap)/float64(total)
	if d := shdHeap - seqHeap; d > 0.1 || d < -0.1 {
		t.Errorf("heap events per request: shards 2 %.3f, shards 1 %.3f; want within 0.1", shdHeap, seqHeap)
	}
	t.Logf("heap events per request: shards 1 %.3f, shards 2 %.3f", seqHeap, shdHeap)
}
