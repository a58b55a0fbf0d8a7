package cluster

import (
	"os"
	"path/filepath"

	"errors"
	"netrs/internal/workload"
	"testing"

	"netrs/internal/c3"
	"netrs/internal/faults"
	"netrs/internal/placement"
	"netrs/internal/scenario"
	"netrs/internal/sim"
)

// crashBusiestAt is the fault schedule that crashes the busiest RSNode once
// frac of the run's requests have completed.
func crashBusiestAt(frac float64) []faults.Event {
	return []faults.Event{{Kind: faults.KindRSNodeCrash, AtFraction: frac, RSNode: faults.TargetBusiest}}
}

// smallConfig scales the paper's setup down to a k=8 fat-tree so a full
// run takes milliseconds.
func smallConfig(scheme Scheme) Config {
	cfg := DefaultConfig()
	cfg.FatTreeK = 8
	cfg.Servers = 20
	cfg.Clients = 40
	cfg.Generators = 20
	cfg.Requests = 4000
	cfg.Keys = 1 << 20
	cfg.VNodes = 16
	cfg.Scheme = scheme
	return cfg
}

func TestSchemeStringsAndParse(t *testing.T) {
	for _, s := range Schemes() {
		name := s.String()
		if name == "" {
			t.Fatal("empty scheme name")
		}
		parsed, err := ParseScheme(name)
		if err != nil || parsed != s {
			t.Fatalf("ParseScheme(%q) = %v, %v", name, parsed, err)
		}
	}
	if _, err := ParseScheme("bogus"); !errors.Is(err, ErrInvalidParam) {
		t.Fatal("bogus scheme parsed")
	}
	if Scheme(99).String() == "" {
		t.Fatal("unknown scheme has empty string")
	}
	for _, s := range AllSchemes() {
		var back Scheme
		if text, err := s.MarshalText(); err != nil || back.UnmarshalText(text) != nil || back != s {
			t.Fatalf("%v: text round trip gave %v (%q, %v)", s, back, text, err)
		}
	}
	if _, err := Scheme(99).MarshalText(); !errors.Is(err, ErrInvalidParam) {
		t.Fatal("unknown scheme marshaled")
	}
	var s Scheme
	if err := s.UnmarshalText([]byte("bogus")); !errors.Is(err, ErrInvalidParam) {
		t.Fatal("bogus scheme unmarshaled")
	}
}

func TestConfigValidation(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.FatTreeK = 3 },
		func(c *Config) { c.Servers = 2; c.Replication = 3 },
		func(c *Config) { c.Servers = c3.MaxServers + 1 },
		func(c *Config) { c.Parallelism = 0 },
		func(c *Config) { c.MeanServiceTime = 0 },
		func(c *Config) { c.FluctuationInterval = -1 },
		func(c *Config) { c.FluctuationRange = 0.5 },
		func(c *Config) { c.VNodes = 0 },
		func(c *Config) { c.ZipfTheta = 1.3 },
		func(c *Config) { c.Clients = 0 },
		func(c *Config) { c.DemandSkew = 1.5 },
		func(c *Config) { c.Utilization = 0 },
		func(c *Config) { c.Requests = 0 },
		func(c *Config) { c.WarmupFraction = 2 },
		func(c *Config) { c.Scheme = Scheme(99) },
		func(c *Config) { c.AccelMaxUtilization = 0 },
		func(c *Config) { c.ExtraHopBudgetFraction = -1 },
		func(c *Config) { c.WriteFraction = 1 },
		func(c *Config) { c.WriteFraction = -0.1 },
		func(c *Config) { c.Scheme = SchemeNetCache; c.CacheBytes = -1 },
		func(c *Config) { c.Scheme = SchemeNetRSCache; c.CacheBytes = 1 << 20; c.CacheAdmitAfter = -1 },
		func(c *Config) { c.Scheme = SchemeNetRSCache; c.CacheBytes = 1 << 20; c.CacheItemMinBytes = -1 },
		func(c *Config) { c.CacheBytes = 1 << 20 }, // cache budget without a cache scheme
		func(c *Config) { c.PlacementMethod = placement.MethodToR },
		func(c *Config) { c.PlacementMethod = placement.MethodWarm },
		func(c *Config) { c.PlacementMethod = placement.Method(9) },
	}
	for i, mod := range mods {
		cfg := DefaultConfig()
		mod(&cfg)
		if _, err := Run(cfg); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("mod %d accepted", i)
		}
	}
}

func TestAllSchemesComplete(t *testing.T) {
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := smallConfig(scheme)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			warmup := int(cfg.WarmupFraction * float64(cfg.Requests))
			if res.Completed != cfg.Requests+warmup {
				t.Fatalf("completed %d, want %d", res.Completed, cfg.Requests+warmup)
			}
			if res.Summary.Count != cfg.Requests {
				t.Fatalf("measured %d, want %d", res.Summary.Count, cfg.Requests)
			}
			// Latency sanity: the mean must exceed the 2-hop network
			// floor and stay below the watchdog scale.
			if res.Summary.MeanMs < 0.06 {
				t.Fatalf("mean %.3fms below network floor", res.Summary.MeanMs)
			}
			if res.Summary.MeanMs > 1000 {
				t.Fatalf("mean %.3fms absurd", res.Summary.MeanMs)
			}
			if res.Summary.P999Ms < res.Summary.P99Ms || res.Summary.P99Ms < res.Summary.P95Ms {
				t.Fatalf("percentiles not monotone: %+v", res.Summary)
			}
			if res.SimulatedSpan <= 0 {
				t.Fatal("no simulated time elapsed")
			}
			t.Logf("%s: %s rsnodes=%d", scheme, res.Summary.String(), res.RSNodes)
		})
	}
}

func TestDeterministicForSeed(t *testing.T) {
	cfg := smallConfig(SchemeNetRSToR)
	cfg.Requests = 2000
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a.Summary, b.Summary)
	}
	cfg.Seed = 2
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary == c.Summary {
		t.Fatal("different seeds produced identical results")
	}
}

func TestRSNodeCounts(t *testing.T) {
	cli, err := Run(smallConfig(SchemeCliRS))
	if err != nil {
		t.Fatal(err)
	}
	if cli.RSNodes != 40 {
		t.Fatalf("CliRS RSNodes = %d, want client count 40", cli.RSNodes)
	}
	tor, err := Run(smallConfig(SchemeNetRSToR))
	if err != nil {
		t.Fatal(err)
	}
	// ToR plan: one RSNode per rack containing clients — at most 32 racks
	// on k=8, and far fewer than the 40 clients.
	if tor.RSNodes < 1 || tor.RSNodes > 32 {
		t.Fatalf("NetRS-ToR RSNodes = %d", tor.RSNodes)
	}
	if tor.RSNodes >= cli.RSNodes {
		t.Fatalf("NetRS-ToR has %d RSNodes, not fewer than CliRS's %d", tor.RSNodes, cli.RSNodes)
	}
	ilp, err := Run(smallConfig(SchemeNetRSILP))
	if err != nil {
		t.Fatal(err)
	}
	if ilp.RSNodes < 1 || ilp.RSNodes > tor.RSNodes {
		t.Fatalf("NetRS-ILP RSNodes = %d, want ≤ ToR's %d", ilp.RSNodes, tor.RSNodes)
	}
	if ilp.PlanMethod == placement.MethodToR {
		t.Fatal("NetRS-ILP never upgraded from the ToR plan")
	}
	t.Logf("RSNodes: CliRS=%d ToR=%d ILP=%d (method %v)", cli.RSNodes, tor.RSNodes, ilp.RSNodes, ilp.PlanMethod)
}

func TestRedundantRequestsSent(t *testing.T) {
	cfg := smallConfig(SchemeCliRSR95)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RedundantSent == 0 {
		t.Fatal("CliRS-R95 sent no duplicates")
	}
	// Roughly 5% of requests should exceed their p95 estimate.
	frac := float64(res.RedundantSent) / float64(res.Completed)
	if frac > 0.5 {
		t.Fatalf("duplicate fraction %.2f absurdly high", frac)
	}
	t.Logf("redundant: %d of %d (%.1f%%)", res.RedundantSent, res.Completed, 100*frac)
}

func TestDuplicateCancellation(t *testing.T) {
	cfg := smallConfig(SchemeCliRSR95)
	cfg.Utilization = 1.0 // deep queues make losers cancelable
	cfg.CancelDuplicates = true
	withCancel, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if withCancel.RedundantSent == 0 {
		t.Skip("no duplicates issued at this configuration")
	}
	if withCancel.CancelledDuplicates == 0 {
		t.Fatal("cancellation enabled but nothing canceled")
	}
	if withCancel.CancelledDuplicates > withCancel.RedundantSent {
		t.Fatalf("cancelled %d > sent %d", withCancel.CancelledDuplicates, withCancel.RedundantSent)
	}
	cfg.CancelDuplicates = false
	without, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if without.CancelledDuplicates != 0 {
		t.Fatal("cancellations recorded with the feature off")
	}
	t.Logf("duplicates: %d sent, %d cancelled (%.0f%%)",
		withCancel.RedundantSent, withCancel.CancelledDuplicates,
		100*float64(withCancel.CancelledDuplicates)/float64(withCancel.RedundantSent))
}

func TestCliRSSendsNoDuplicatesAndNoDRS(t *testing.T) {
	res, err := Run(smallConfig(SchemeCliRS))
	if err != nil {
		t.Fatal(err)
	}
	if res.RedundantSent != 0 || res.DegradedResponses != 0 {
		t.Fatalf("CliRS extras: %d redundant, %d degraded", res.RedundantSent, res.DegradedResponses)
	}
}

func TestNetRSSchemesOutperformCliRSOnPaperShape(t *testing.T) {
	// The headline claim at moderate scale: NetRS-ILP < NetRS-ToR < CliRS
	// on mean latency, with high utilization and fluctuating servers.
	if testing.Short() {
		t.Skip("shape test needs a moderate run")
	}
	results := map[Scheme]Result{}
	for _, scheme := range []Scheme{SchemeCliRS, SchemeNetRSToR, SchemeNetRSILP} {
		cfg := smallConfig(scheme)
		cfg.Requests = 12000
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[scheme] = res
		t.Logf("%-10s %s", scheme, res.Summary.String())
	}
	if results[SchemeNetRSToR].Summary.MeanMs >= results[SchemeCliRS].Summary.MeanMs {
		t.Errorf("NetRS-ToR mean %.3f not below CliRS %.3f",
			results[SchemeNetRSToR].Summary.MeanMs, results[SchemeCliRS].Summary.MeanMs)
	}
	if results[SchemeNetRSILP].Summary.MeanMs >= results[SchemeCliRS].Summary.MeanMs {
		t.Errorf("NetRS-ILP mean %.3f not below CliRS %.3f",
			results[SchemeNetRSILP].Summary.MeanMs, results[SchemeCliRS].Summary.MeanMs)
	}
	if results[SchemeNetRSILP].Summary.P99Ms >= results[SchemeCliRS].Summary.P99Ms {
		t.Errorf("NetRS-ILP p99 %.3f not below CliRS %.3f",
			results[SchemeNetRSILP].Summary.P99Ms, results[SchemeCliRS].Summary.P99Ms)
	}
}

func TestDemandSkewRuns(t *testing.T) {
	cfg := smallConfig(SchemeNetRSILP)
	cfg.DemandSkew = 0.9
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Count != cfg.Requests {
		t.Fatalf("measured %d", res.Summary.Count)
	}
}

func TestHostLevelGroups(t *testing.T) {
	cfg := smallConfig(SchemeNetRSToR)
	cfg.RackLevelGroups = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("host-level groups run failed")
	}
}

func TestNoFluctuationStillWorks(t *testing.T) {
	cfg := smallConfig(SchemeCliRS)
	cfg.FluctuationInterval = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Without fluctuation (and at 90% load) latency reflects queueing on
	// homogeneous exponential servers.
	if res.Summary.MeanMs <= 0 {
		t.Fatal("no latency recorded")
	}
}

func TestRateControlToggle(t *testing.T) {
	on := smallConfig(SchemeNetRSToR)
	off := on
	off.RateControl = false
	a, err := Run(on)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	// At moderate per-(RSNode, server) rates C3's cubic limiter rarely
	// engages, so the two runs may coincide; both must simply complete.
	if a.Summary.Count != b.Summary.Count {
		t.Fatalf("counts differ: %d vs %d", a.Summary.Count, b.Summary.Count)
	}
}

func TestRSNodeFailureInjection(t *testing.T) {
	cfg := smallConfig(SchemeNetRSToR)
	cfg.Scenario.Faults = crashBusiestAt(0.5)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warmup := int(cfg.WarmupFraction * float64(cfg.Requests))
	if res.Completed != cfg.Requests+warmup {
		t.Fatalf("failure run completed %d of %d", res.Completed, cfg.Requests+warmup)
	}
	if res.FailedRSNode == 0 {
		t.Fatal("no RSNode was failed")
	}
	if res.DegradedResponses == 0 {
		t.Fatal("no requests took the DRS path after the failure")
	}
	if res.DegradedGroups == 0 {
		t.Fatal("controller flipped no groups to DRS")
	}
	t.Logf("failed RSNode %d: %d degraded responses, %d degraded groups",
		res.FailedRSNode, res.DegradedResponses, res.DegradedGroups)

	// Without injection, nothing degrades.
	clean, err := Run(smallConfig(SchemeNetRSToR))
	if err != nil {
		t.Fatal(err)
	}
	if clean.FailedRSNode != 0 || clean.DegradedResponses != 0 {
		t.Fatalf("clean run shows failure artifacts: %+v", clean)
	}
}

func TestOperatorSelectionConservation(t *testing.T) {
	// Every completed NetRS request was either selected in-network or
	// served via DRS.
	cfg := smallConfig(SchemeNetRSToR)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(res.Completed)
	if res.OperatorSelections+res.DegradedResponses != total {
		t.Fatalf("selections %d + degraded %d != completed %d",
			res.OperatorSelections, res.DegradedResponses, total)
	}
	// CliRS never selects in-network.
	cli, err := Run(smallConfig(SchemeCliRS))
	if err != nil {
		t.Fatal(err)
	}
	if cli.OperatorSelections != 0 {
		t.Fatalf("CliRS performed %d in-network selections", cli.OperatorSelections)
	}
}

func TestOperatorAlgorithmKnob(t *testing.T) {
	cfg := smallConfig(SchemeNetRSILP)
	cfg.OperatorAlgorithm = "lor"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Count != cfg.Requests {
		t.Fatalf("lor-operated run measured %d", res.Summary.Count)
	}
	cfg.OperatorAlgorithm = "bogus"
	if _, err := Run(cfg); err == nil {
		t.Fatal("bogus operator algorithm accepted")
	}
}

func TestSmallServiceTimeStaysStable(t *testing.T) {
	// Regression: with sub-millisecond service times the arrival rate is
	// enormous; the C3 limiter must start at the operating point instead
	// of death-spiraling through slow start (historically 100× latency
	// inflation).
	cfg := smallConfig(SchemeNetRSILP)
	cfg.MeanServiceTime = 500 * sim.Microsecond
	cfg.Requests = 8000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.MeanMs > 5 {
		t.Fatalf("mean %.3fms at 0.5ms service time; limiter transient not contained", res.Summary.MeanMs)
	}
}

func TestInterveningLevelGroups(t *testing.T) {
	// §III-A: groups of several hosts within a rack, between host- and
	// rack-level. The run must complete and use more groups (hence
	// potentially more RSNodes) than pure rack-level.
	cfg := smallConfig(SchemeNetRSToR)
	cfg.GroupMaxHosts = 1 // degenerate intervening level == host level
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Count != cfg.Requests {
		t.Fatalf("measured %d", res.Summary.Count)
	}
	cfg.GroupMaxHosts = -1
	if _, err := Run(cfg); !errors.Is(err, ErrInvalidParam) {
		t.Fatal("negative group size accepted")
	}
}

func TestQueueOscillationMetric(t *testing.T) {
	cli, err := Run(smallConfig(SchemeCliRS))
	if err != nil {
		t.Fatal(err)
	}
	ilp, err := Run(smallConfig(SchemeNetRSILP))
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]Result{"CliRS": cli, "NetRS-ILP": ilp} {
		if res.QueueCVMean <= 0 || res.QueueCVMean > 20 {
			t.Fatalf("%s queue CV = %v, want a finite positive dispersion", name, res.QueueCVMean)
		}
		if res.ServerLoadCV < 0 || res.ServerLoadCV > 5 {
			t.Fatalf("%s load CV = %v out of sane range", name, res.ServerLoadCV)
		}
	}
	t.Logf("queue-length CV (herd-behavior signal): CliRS=%.3f NetRS-ILP=%.3f",
		cli.QueueCVMean, ilp.QueueCVMean)
}

// recordTestTrace records a 3000-request synthetic workload over 40
// clients and writes it as a trace file, returning the file's path.
func recordTestTrace(t *testing.T) string {
	t.Helper()
	src, err := workload.NewSource(workload.SourceConfig{
		Generators: 10,
		RatePerSec: 18000,
		Clients:    40,
		Keys:       1 << 20,
		ZipfTheta:  0.99,
		Total:      3000,
	}, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	var entries []workload.TraceEntry
	for at, req, ok := src.Next(); ok; at, req, ok = src.Next() {
		entries = append(entries, workload.TraceEntry{At: at, Client: req.Client, Key: req.Key})
	}
	return writeTestTrace(t, entries)
}

// writeTestTrace writes entries as a trace file and returns its path.
func writeTestTrace(t *testing.T, entries []workload.TraceEntry) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteTrace(f, entries); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReplayTraceWorkload(t *testing.T) {
	// Record a synthetic workload, persist it, and replay it through the
	// cluster: the run must execute exactly the trace.
	path := recordTestTrace(t)
	cfg := smallConfig(SchemeNetRSToR)
	cfg.Scenario = scenario.Scenario{ReplayTracePath: path}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted != 3000 || res.Completed != 3000 {
		t.Fatalf("replayed %d/%d of 3000", res.Emitted, res.Completed)
	}
	warmup := int(cfg.WarmupFraction * 3000)
	if res.Summary.Count != 3000-warmup {
		t.Fatalf("measured %d, want %d", res.Summary.Count, 3000-warmup)
	}

	// Replay is deterministic: same trace, same seed, same summary.
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary != res2.Summary {
		t.Fatal("trace replay not deterministic")
	}

	// A trace referencing unknown clients is rejected.
	cfg.Clients = 10
	if _, err := Run(cfg); !errors.Is(err, ErrInvalidParam) {
		t.Fatal("out-of-range trace client accepted")
	}
	cfg.Clients = 40
	cfg.Scenario.ReplayTracePath = "/does/not/exist.csv"
	if _, err := Run(cfg); err == nil {
		t.Fatal("missing trace file accepted")
	}
}

// TestReplayEmptyTraceRejected: a trace file with a header and no
// entries is an error, not a silent fallback to the synthetic source.
func TestReplayEmptyTraceRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.csv")
	if err := os.WriteFile(path, []byte("arrival_ns,client,key\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(SchemeNetRSToR)
	cfg.Scenario = scenario.Scenario{ReplayTracePath: path}
	if res, err := Run(cfg); !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("empty trace: Run emitted %d requests, err %v; want ErrInvalidParam", res.Emitted, err)
	}
}

// TestReplayRejectsSyntheticOnlySettings: the trace carries no write
// column and no demand shift, so replay refuses the settings that only
// the synthetic source honors rather than ignoring them.
func TestReplayRejectsSyntheticOnlySettings(t *testing.T) {
	cases := map[string]func(*Config){
		"write fraction": func(c *Config) { c.WriteFraction = 0.05 },
		"demand shift": func(c *Config) {
			c.DemandSkew = 0.6
			c.DemandShiftAt = 0.4
			c.DemandShiftFraction = 0.5
		},
	}
	for name, mutate := range cases {
		cfg := smallConfig(SchemeNetRSToR)
		mutate(&cfg)
		if err := cfg.validate(); err != nil {
			t.Fatalf("%s: synthetic validate() = %v, want nil", name, err)
		}
		cfg.Scenario = scenario.Scenario{ReplayTracePath: "trace.csv"}
		if err := cfg.validate(); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("%s: replay validate() = %v, want ErrInvalidParam", name, err)
		}
	}
}

func TestLatencyTrace(t *testing.T) {
	cfg := smallConfig(SchemeCliRS)
	cfg.KeepLatencyTrace = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TraceMs) != cfg.Requests {
		t.Fatalf("trace has %d entries, want %d", len(res.TraceMs), cfg.Requests)
	}
	sum := 0.0
	for _, v := range res.TraceMs {
		if v <= 0 {
			t.Fatal("non-positive latency in trace")
		}
		sum += v
	}
	mean := sum / float64(len(res.TraceMs))
	if diff := mean - res.Summary.MeanMs; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("trace mean %.6f != summary mean %.6f", mean, res.Summary.MeanMs)
	}
	// Without the flag, no trace is kept.
	cfg.KeepLatencyTrace = false
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.TraceMs != nil {
		t.Fatal("trace kept without the flag")
	}
}

func TestLowUtilizationFasterThanHigh(t *testing.T) {
	lo := smallConfig(SchemeCliRS)
	lo.Utilization = 0.3
	hi := smallConfig(SchemeCliRS)
	hi.Utilization = 0.9
	a, err := Run(lo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(hi)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.MeanMs >= b.Summary.MeanMs {
		t.Fatalf("30%% util mean %.3f not below 90%% util %.3f", a.Summary.MeanMs, b.Summary.MeanMs)
	}
}

func TestFasterServersLowerLatency(t *testing.T) {
	slow := smallConfig(SchemeCliRS)
	fast := smallConfig(SchemeCliRS)
	fast.MeanServiceTime = 500 * sim.Microsecond
	a, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.MeanMs >= b.Summary.MeanMs {
		t.Fatalf("0.5ms service mean %.3f not below 4ms service %.3f", a.Summary.MeanMs, b.Summary.MeanMs)
	}
}
