// Package netrs is a library-scale reproduction of "NetRS: Cutting
// Response Latency in Distributed Key-Value Stores with In-Network Replica
// Selection" (Su, Feng, Hua, Shi, Zhu — ICDCS 2018).
//
// NetRS moves replica selection for read-dominant key-value stores off the
// clients and into programmable network devices: each NetRS operator (a
// programmable switch plus a network accelerator) aggregates the traffic
// of many clients, giving its replica-selection algorithm a fresher view
// of server state and shrinking the population of independent selectors
// whose simultaneous decisions cause "herd behavior". A controller places
// these RSNodes by solving an integer linear program that minimizes their
// number under accelerator-capacity and extra-hop constraints.
//
// This package is the public facade. It exposes the experiment
// configuration, the four schemes of the paper's evaluation (CliRS,
// CliRS-R95, NetRS-ToR, NetRS-ILP) plus the in-network cache tier
// extensions (NetCache, NetRS+Cache), single-run and repeated-run entry
// points, and sweep definitions that regenerate every figure of the
// paper's §V. The machinery lives in internal packages:
//
//   - internal/sim — deterministic discrete-event engine
//   - internal/topo — k-ary fat-tree topologies and ECMP routing
//   - internal/kv — consistent-hash ring and fluctuating replica servers
//   - internal/c3, internal/selection — the C3 algorithm and baselines
//   - internal/wire — the NetRS packet format (Fig. 2)
//   - internal/cache — the deterministic ToR hot-key cache
//   - internal/fabric — operators, accelerators, monitors, controller
//   - internal/ilp, internal/placement — the RSNode-placement ILP (§III)
//   - internal/workload, internal/cluster — workload and experiment wiring
//   - internal/kvnet — a real UDP implementation of the protocol
package netrs

import (
	"fmt"
	"runtime"
	"sort"

	"netrs/internal/cluster"
	"netrs/internal/exec"
	"netrs/internal/faults"
	"netrs/internal/scenario"
	"netrs/internal/selection"
	"netrs/internal/sim"
	"netrs/internal/stats"
)

// Config is the full experiment parameter set; see cluster.Config for
// field documentation. DefaultConfig returns the paper's §V-A values.
type Config = cluster.Config

// Result reports one experiment run.
type Result = cluster.Result

// Scheme selects the replica-selection deployment under test.
type Scheme = cluster.Scheme

// Summary holds the per-run latency statistics (mean, p95, p99, p99.9).
type Summary = stats.Summary

// FaultEvent is one declared fault of a run's schedule (RSNode crash or
// recovery, server slowdown/crash/restart, link-delay spike); see
// internal/faults for event semantics and validation rules.
type FaultEvent = faults.Event

// TimelineBucket is one bucket of a run's time-resolved latency/DRS-share
// series (Result.Timeline), produced when Config.TimelineBucket is set.
type TimelineBucket = stats.TimelineBucket

// EpochRecord is one controller epoch of a run's plan history
// (Result.Epochs), produced when Config.ControllerInterval is set.
type EpochRecord = cluster.EpochRecord

// The fault-event kinds and RSNode target sentinels.
const (
	FaultRSNodeCrash    = faults.KindRSNodeCrash
	FaultRSNodeRecover  = faults.KindRSNodeRecover
	FaultServerSlowdown = faults.KindServerSlowdown
	FaultServerCrash    = faults.KindServerCrash
	FaultServerRestart  = faults.KindServerRestart
	FaultLinkDelay      = faults.KindLinkDelay

	FaultTargetBusiest = faults.TargetBusiest
	FaultTargetFailed  = faults.TargetFailed
)

// Scenario declares a run's composite stress scenario (diurnal load
// curve, flash-crowd key spike, slow racks, heterogeneous server speeds,
// trace replay, the run's fault schedule); see internal/scenario for section
// semantics and the JSON schema behind `netrs-sim -scenario`.
type Scenario = scenario.Scenario

// ScenarioNames lists the built-in scenario names, sorted.
func ScenarioNames() []string { return scenario.Names() }

// ScenarioByName resolves a built-in scenario.
func ScenarioByName(name string) (Scenario, error) { return scenario.ByName(name) }

// ResolveScenario accepts either a built-in scenario name or a JSON
// scenario file path — the contract of `netrs-sim -scenario` and
// `netrs-figs -scenarios`.
func ResolveScenario(nameOrPath string) (Scenario, error) {
	if s, err := scenario.ByName(nameOrPath); err == nil {
		return s, nil
	}
	s, err := scenario.Load(nameOrPath)
	if err != nil {
		return Scenario{}, fmt.Errorf("%q is neither a built-in scenario %v nor a readable scenario file: %w",
			nameOrPath, ScenarioNames(), err)
	}
	return s, nil
}

// SelectorNames lists the registered replica-selection algorithms, sorted
// — the names Config.OperatorAlgorithm and the matrix sweep accept.
func SelectorNames() []string {
	names := append([]string(nil), selection.Algorithms()...)
	sort.Strings(names)
	return names
}

// TimelineTable renders a timeline series as a fixed-width text table.
func TimelineTable(buckets []TimelineBucket) string { return stats.TimelineTable(buckets) }

// The paper's four schemes, plus the in-network cache tier extensions
// (NetCache serves hits at the client's ToR and forwards misses to a
// fixed primary; NetRS+Cache serves hits at the RSNode's ToR and runs
// the replica selector on misses).
const (
	SchemeCliRS      = cluster.SchemeCliRS
	SchemeCliRSR95   = cluster.SchemeCliRSR95
	SchemeNetRSToR   = cluster.SchemeNetRSToR
	SchemeNetRSILP   = cluster.SchemeNetRSILP
	SchemeNetCache   = cluster.SchemeNetCache
	SchemeNetRSCache = cluster.SchemeNetRSCache
)

// Time is the simulated-time type (integer nanoseconds).
type Time = sim.Time

// Millisecond and friends re-export the simulated time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// DefaultConfig returns the paper's experimental defaults (16-ary
// fat-tree, 100 servers × 4-way at 4 ms, 500 clients, 200 generators, 90%
// utilization, Zipf 0.99 over 100 M keys), with the request count scaled
// down from 6 M to 100 k so a run completes in seconds.
func DefaultConfig() Config { return cluster.DefaultConfig() }

// Schemes lists the four schemes in the paper's order.
func Schemes() []Scheme { return cluster.Schemes() }

// AllSchemes lists every scheme: the paper's four followed by the cache
// tier extensions (NetCache, NetRS+Cache).
func AllSchemes() []Scheme { return cluster.AllSchemes() }

// ParseScheme resolves a scheme by its printed name.
func ParseScheme(name string) (Scheme, error) { return cluster.ParseScheme(name) }

// Run executes one experiment.
func Run(cfg Config) (Result, error) { return cluster.Run(cfg) }

// RunOptions controls how repeated runs and sweeps execute.
type RunOptions struct {
	// Parallelism bounds the number of concurrently running trials. Zero
	// selects runtime.GOMAXPROCS(0) — divided by Config.Shards when the
	// sharded engine is on, so trial-level and intra-run parallelism
	// compose to roughly one worker per core instead of multiplying.
	// 1 runs strictly sequentially on the calling goroutine. Parallelism
	// never changes results: trials are independent seeded simulations and
	// their outputs are assembled by trial index, so any setting produces
	// bit-identical numbers.
	Parallelism int
}

// RunRepeated executes the experiment once per seed — the paper repeats
// every experiment three times with different random deployments — and
// returns the per-run results plus the merged summary. Seeds run in
// parallel as opts allows. Results are ordered by seed regardless of
// completion order, so every parallelism level returns bit-identical
// output.
func RunRepeated(cfg Config, seeds []uint64, opts RunOptions) ([]Result, Summary, error) {
	// One cell: it completes only if every seed does.
	cells, err := runGrid(cfg, make([]struct{}, 1), seeds, opts, nil, nil, nil)
	if err != nil {
		return nil, Summary{}, err
	}
	return cells[0].runs, cells[0].merged, nil
}

// gridCell is one completed cell of a study grid.
type gridCell struct {
	// index is the cell's position in the list given to runGrid.
	index int
	// runs are the per-seed results in seed order; merged is their
	// seed-averaged summary.
	runs   []Result
	merged Summary
}

// runGrid is the one study executor: it runs every cell once per seed,
// each (cell, seed) trial an independent simulation fanned across one
// worker pool. Trial t runs cell t/len(seeds) under seed t%len(seeds), so
// a sequential pool walks the cells in order with the seeds innermost.
// A trial's config is base, then setup(cell), then the seed; progress (if
// non-nil) fires before each cell's first trial and must be safe for
// concurrent use. A failed trial's error reads "<label>: seed N: cause"
// (just "seed N: cause" when label is nil); setup may be nil too.
//
// On failure no further trial starts, and the error comes back with
// every cell whose trials all completed, in cell order — a long study
// is not a total loss on one bad cell.
func runGrid[C any](base Config, cells []C, seeds []uint64, opts RunOptions,
	progress func(C), setup func(C, *Config), label func(C) string) ([]gridCell, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("netrs: no seeds given")
	}
	nSeeds := len(seeds)
	done := make([]bool, len(cells)*nSeeds)
	pool := exec.Pool{Workers: trialWorkers(opts.Parallelism, base.EffectiveShards())}
	if progress != nil {
		pool.Progress = func(t int) {
			if t%nSeeds == 0 {
				progress(cells[t/nSeeds])
			}
		}
	}
	results, runErr := exec.Run(pool, len(done), func(t int) (Result, error) {
		c := cells[t/nSeeds]
		cfg := base
		if setup != nil {
			setup(c, &cfg)
		}
		cfg.Seed = seeds[t%nSeeds]
		res, err := Run(cfg)
		if err != nil {
			prefix := fmt.Sprintf("seed %d", cfg.Seed)
			if label != nil {
				prefix = label(c) + ": " + prefix
			}
			return Result{}, fmt.Errorf("%s: %w", prefix, err)
		}
		// Completion flags are published by the executor's final wait.
		done[t] = true
		return res, nil
	})

	var out []gridCell
nextCell:
	for ci := range cells {
		trials := results[ci*nSeeds : (ci+1)*nSeeds]
		summaries := make([]Summary, nSeeds)
		for s, res := range trials {
			if !done[ci*nSeeds+s] {
				continue nextCell
			}
			summaries[s] = res.Summary
		}
		// Cannot fail: summaries holds one entry per seed, and seeds is
		// non-empty.
		merged, _ := stats.MergeSummaries(summaries)
		out = append(out, gridCell{index: ci, runs: append([]Result(nil), trials...), merged: merged})
	}
	return out, runErr
}

// trialWorkers composes trial-level parallelism with the sharded engine's
// intra-run workers: an automatic (zero) trial count is divided by the
// shard count, so the two levels multiply to roughly GOMAXPROCS instead
// of oversubscribing the machine. Explicit counts are honored unchanged —
// parallelism never affects results at either level. shards is the
// normalized Config.EffectiveShards value, so unset (0) and 1 have
// already collapsed to the same sequential meaning.
func trialWorkers(parallelism, shards int) int {
	if parallelism != 0 || shards <= 1 {
		return parallelism
	}
	if w := runtime.GOMAXPROCS(0) / shards; w > 1 {
		return w
	}
	return 1
}

// DefaultSeeds returns the three deployment seeds used throughout the
// reproduction, mirroring the paper's three repetitions.
func DefaultSeeds() []uint64 { return []uint64{1, 2, 3} }

// DeriveSeeds expands a base seed into n decorrelated trial seeds through
// the centralized SplitMix64 derivation (sim.DeriveSeed) — the supported
// way to grow a repetition count past DefaultSeeds without hand-picking
// values.
func DeriveSeeds(base uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = sim.DeriveSeed(base, uint64(i))
	}
	return seeds
}
