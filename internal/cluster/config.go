// Package cluster assembles full NetRS experiments: it builds the
// fat-tree fabric, the consistent-hash ring, the fluctuating replica
// servers, the client population, and the open-loop workload, wires one of
// the paper's four schemes (CliRS, CliRS-R95, NetRS-ToR, NetRS-ILP) or a
// cache tier extension (NetCache, NetRS+Cache), runs
// the discrete-event simulation, and reports the latency distribution —
// the machinery behind every figure of §V.
package cluster

import (
	"errors"
	"fmt"

	"netrs/internal/c3"
	"netrs/internal/dist"
	"netrs/internal/fabric"
	"netrs/internal/placement"
	"netrs/internal/scenario"
	"netrs/internal/sim"
)

// ErrInvalidParam reports out-of-domain configuration.
var ErrInvalidParam = errors.New("cluster: invalid parameter")

// Scheme selects the replica-selection deployment under test (§V-A).
type Scheme int

// The four schemes of the evaluation, plus the cache tier extensions.
const (
	// SchemeCliRS: every client is an RSNode running C3 — the
	// conventional deployment of Cassandra/Dynamo-style stores.
	SchemeCliRS Scheme = iota + 1
	// SchemeCliRSR95: CliRS plus redundant requests — a duplicate goes
	// out once a request has been outstanding longer than the client's
	// 95th-percentile latency estimate.
	SchemeCliRSR95
	// SchemeNetRSToR: NetRS with the straightforward RSP that uses each
	// rack's ToR operator as the RSNode for the rack's clients.
	SchemeNetRSToR
	// SchemeNetRSILP: NetRS with the RSP computed by the controller's
	// ILP placement.
	SchemeNetRSILP
	// SchemeNetCache: the in-network cache tier alone — each rack's ToR
	// answers hot-key hits from its cache and sends misses to the replica
	// group's fixed primary, with no replica selection anywhere.
	SchemeNetCache
	// SchemeNetRSCache: NetRS-ToR composed with the cache tier — the ToR
	// RSNode answers hits locally and runs its selector on misses.
	SchemeNetRSCache
)

// String names the scheme as the paper does.
func (s Scheme) String() string {
	switch s {
	case SchemeCliRS:
		return "CliRS"
	case SchemeCliRSR95:
		return "CliRS-R95"
	case SchemeNetRSToR:
		return "NetRS-ToR"
	case SchemeNetRSILP:
		return "NetRS-ILP"
	case SchemeNetCache:
		return "NetCache"
	case SchemeNetRSCache:
		return "NetRS+Cache"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// MarshalText encodes the scheme by name, so saved configs and JSON
// results read "NetRS-ILP" rather than an ordinal.
func (s Scheme) MarshalText() ([]byte, error) {
	if s < SchemeCliRS || s > SchemeNetRSCache {
		return nil, fmt.Errorf("scheme %d: %w", int(s), ErrInvalidParam)
	}
	return []byte(s.String()), nil
}

// UnmarshalText decodes a scheme name as ParseScheme does.
func (s *Scheme) UnmarshalText(text []byte) error {
	v, err := ParseScheme(string(text))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Schemes lists the paper's four schemes in presentation order. The cache
// tier's two schemes are deliberately not here: sweeps and goldens that
// iterate Schemes() predate them and stay byte-identical.
func Schemes() []Scheme {
	return []Scheme{SchemeCliRS, SchemeCliRSR95, SchemeNetRSToR, SchemeNetRSILP}
}

// AllSchemes lists every scheme, the four of Schemes() plus the cache
// tier's NetCache and NetRS+Cache.
func AllSchemes() []Scheme {
	return append(Schemes(), SchemeNetCache, SchemeNetRSCache)
}

// ParseScheme resolves a scheme name (case-sensitive, as printed).
func ParseScheme(name string) (Scheme, error) {
	for _, s := range AllSchemes() {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q: %w", name, ErrInvalidParam)
}

// Config is one experiment's full parameter set. DefaultConfig returns the
// paper's §V-A values. The json tags make Config its own saved-config
// schema: durations are integer nanoseconds under …Ns keys, and
// omitempty marks only fields whose default is zero.
type Config struct {
	// Seed drives every random stream; repeating a seed repeats the run.
	Seed uint64 `json:"seed"`

	// FatTreeK is the fat-tree arity (16 → 1024 hosts).
	FatTreeK int `json:"fatTreeK"`

	// Servers (Ns), Parallelism (Np), MeanServiceTime (tkv), and the
	// bimodal fluctuation parameters of the replica servers.
	Servers             int      `json:"servers"`
	Parallelism         int      `json:"parallelism"`
	MeanServiceTime     sim.Time `json:"meanServiceTimeNs"`
	FluctuationInterval sim.Time `json:"fluctuationIntervalNs"`
	FluctuationRange    float64  `json:"fluctuationRange"`

	// Replication is the replication factor; VNodes the ring's virtual
	// nodes per server; Keys and ZipfTheta the key popularity model.
	Replication int     `json:"replication"`
	VNodes      int     `json:"vnodes"`
	Keys        uint64  `json:"keys"`
	ZipfTheta   float64 `json:"zipfTheta"`

	// Clients, Generators, and the demand-skew knobs.
	Clients           int     `json:"clients"`
	Generators        int     `json:"generators"`
	DemandSkew        float64 `json:"demandSkew"`
	HotClientFraction float64 `json:"hotClientFraction"`

	// DemandShiftAt, when positive, enables the time-varying hotspot
	// phase: once this fraction of the run's requests has been emitted,
	// DemandShiftFraction of each client's demand relocates to the client
	// half a population away, moving the hot set to different racks
	// mid-run. Requires DemandSkew > 0 to be observable and a
	// DemandShiftFraction in (0,1]. Synthetic workload only: validate
	// rejects it with trace replay, which carries its own time structure.
	DemandShiftAt       float64 `json:"demandShiftAt,omitempty"`
	DemandShiftFraction float64 `json:"demandShiftFraction,omitempty"`

	// Utilization is the target system utilization ρ = tkv·A/(Ns·Np).
	Utilization float64 `json:"utilization"`

	// Requests is the number of measured requests; WarmupFraction adds a
	// warmup prefix excluded from statistics (and used by NetRS-ILP to
	// collect monitor traffic before solving the placement).
	Requests       int     `json:"requests"`
	WarmupFraction float64 `json:"warmupFraction"`

	// Scheme picks the deployment; RateControl toggles C3's cubic rate
	// shaping at the RSNodes.
	Scheme      Scheme `json:"scheme"`
	RateControl bool   `json:"rateControl"`

	// WriteFraction is the share of requests that are updates. Writes
	// always travel to a replica server; with a cache scheme, a committed
	// write fans out invalidation messages to every ToR cache. Zero (the
	// default) keeps the workload read-only and the RNG streams
	// bit-identical to the pre-write layout. Synthetic workload only: the
	// trace format has no write column, so validate rejects it with trace
	// replay.
	WriteFraction float64 `json:"writeFraction,omitempty"`

	// CacheBytes is the per-ToR hot-key cache budget for the cache
	// schemes (NetCache, NetRS+Cache). Zero leaves every cache disabled —
	// NetRS+Cache then behaves bit-identically to NetRS-ToR.
	CacheBytes int64 `json:"cacheBytes,omitempty"`
	// CacheAdmitAfter is the cache's frequency-gated admission threshold
	// (misses before a response may admit); zero means the package
	// default. CacheItemMinBytes/CacheItemMaxBytes bound the
	// deterministic per-key item sizes; zeros mean the defaults.
	CacheAdmitAfter   int   `json:"cacheAdmitAfter,omitempty"`
	CacheItemMinBytes int64 `json:"cacheItemMinBytes,omitempty"`
	CacheItemMaxBytes int64 `json:"cacheItemMaxBytes,omitempty"`

	// OperatorAlgorithm selects the replica-selection algorithm NetRS
	// RSNodes run; empty means C3 (the paper's choice). Any name from
	// selection.Algorithms() works — §IV-C's "arbitrary replica selection
	// algorithm" flexibility.
	OperatorAlgorithm string `json:"operatorAlgorithm,omitempty"`

	// Fabric carries the network-device parameters; AccelMaxUtilization
	// is U and ExtraHopBudgetFraction sets E = fraction·A (§V-B).
	Fabric                 fabric.Config `json:"fabric"`
	AccelMaxUtilization    float64       `json:"accelMaxUtilization"`
	ExtraHopBudgetFraction float64       `json:"extraHopBudgetFraction"`

	// RackLevelGroups selects rack-level traffic groups (the paper's
	// main granularity); false means host-level groups.
	RackLevelGroups bool `json:"rackLevelGroups"`

	// GroupMaxHosts caps the hosts per traffic group, realizing §III-A's
	// intervening-level granularity ("requests from several end-hosts in
	// the same rack as a group"): with RackLevelGroups set, a rack's
	// clients are chunked into groups of at most this many hosts. Zero
	// means unlimited (pure rack-level).
	GroupMaxHosts int `json:"groupMaxHosts,omitempty"`

	// PlacementMethod forwards to the placement solver (auto by
	// default). It must name a solver: tor and warm-start only label
	// plans.
	PlacementMethod placement.Method `json:"placementMethod"`

	// CancelDuplicates adds cross-server cancellation to CliRS-R95: when
	// the first response of a duplicated request arrives, the loser is
	// canceled at its server if still queued (Dean & Barroso's
	// redundancy-overhead reduction, the paper's citation [9]). It needs
	// a single partition (Shards ≤ 1).
	CancelDuplicates bool `json:"cancelDuplicates,omitempty"`

	// TimelineBucket, when positive, enables the time-bucketed resilience
	// recorder: measured completions are folded into buckets of this width
	// and reported in Result.Timeline (per-bucket mean/p99 latency, DRS
	// share, timeout expiries). Zero disables the timeline.
	TimelineBucket sim.Time `json:"timelineBucketNs,omitempty"`

	// ControllerInterval, when positive, enables controller epochs (§II's
	// periodic loop): every interval after the initial ILP deployment, the
	// controller snapshots the ToR monitors, re-solves the placement from
	// that window's rates, and deploys the delta (only groups whose RSNode
	// changed are re-steered; an infeasible epoch keeps the standing plan
	// and records a Result.Errors entry). Zero (the default) solves once
	// after warmup and never adapts — the pre-epoch behavior, bit for bit.
	// NetRS-ILP only.
	ControllerInterval sim.Time `json:"controllerIntervalNs,omitempty"`

	// KeepLatencyTrace records every measured request's latency in
	// Result.TraceMs, in arrival order (the same at every Shards value),
	// for external analysis.
	KeepLatencyTrace bool `json:"keepLatencyTrace,omitempty"`

	// Scenario declares the run's composite stress scenario — diurnal
	// arrival-rate curve, flash-crowd key spike, persistently slow racks,
	// heterogeneous server speed classes, trace replay, and the run's one
	// fault schedule — compiled at setup into hooks on the workload
	// source, the fabric, the servers, and the fault scheduler. The zero value is the
	// steady baseline, bit-identical to a scenario-free run. See
	// internal/scenario for the JSON schema behind `netrs-sim -scenario`.
	Scenario scenario.Scenario `json:"scenario"`

	// Shards, when above one, runs the experiment over the fat-tree's pod
	// partitions (plus one control partition for the core switches and the
	// controller): conservative-PDES partitions synchronized by the
	// inter-switch link latency, with up to Shards worker goroutines
	// executing partition windows concurrently. The partition structure is
	// fixed by the topology, so every Shards value above one produces the
	// same event order — the worker count changes wall time only. Zero or
	// one runs the same runner on a single partition (Shards ≤ 1), in the
	// event order the golden files pin. The two agree except where events
	// of different partitions tie at the exact same nanosecond, which
	// partitions may order differently (DESIGN.md §11).
	// Above one, every feature runs but CliRS-R95's CancelDuplicates, which
	// validate rejects: withdrawing a duplicate's loser reads and edits
	// another server's queue through one run-wide map, and that server may
	// sit in another partition.
	Shards int `json:"shards,omitempty"`
}

// IsCacheScheme reports whether the scheme deploys the ToR hot-key cache
// tier.
func (c Config) IsCacheScheme() bool {
	return c.Scheme == SchemeNetCache || c.Scheme == SchemeNetRSCache
}

// EffectiveShards is the normalized Shards knob: zero (unset) and one
// both mean a single partition (Shards ≤ 1), so every dispatch site —
// the runner's partition count, the trial-worker division in the facade —
// asks this one method instead of re-deciding what "unset" means.
func (c Config) EffectiveShards() int {
	if c.Shards <= 1 {
		return 1
	}
	return c.Shards
}

// DefaultConfig returns the paper's experimental defaults, except that
// Requests defaults to 100000 rather than 6 million so a single run fits
// in seconds; scale it up (the CLIs' -requests flag) to approach the
// paper's statistical depth.
func DefaultConfig() Config {
	return Config{
		Seed:                   1,
		FatTreeK:               16,
		Servers:                100,
		Parallelism:            4,
		MeanServiceTime:        4 * sim.Millisecond,
		FluctuationInterval:    50 * sim.Millisecond,
		FluctuationRange:       3,
		Replication:            3,
		VNodes:                 64,
		Keys:                   100_000_000,
		ZipfTheta:              0.99,
		Clients:                500,
		Generators:             200,
		DemandSkew:             0,
		HotClientFraction:      0.2,
		Utilization:            0.9,
		Requests:               100_000,
		WarmupFraction:         0.05,
		Scheme:                 SchemeCliRS,
		RateControl:            true,
		Fabric:                 fabric.NewDefaultConfig(),
		AccelMaxUtilization:    0.5,
		ExtraHopBudgetFraction: 0.2,
		RackLevelGroups:        true,
		PlacementMethod:        placement.MethodAuto,
	}
}

func (c Config) validate() error {
	switch {
	case c.FatTreeK < 2 || c.FatTreeK%2 != 0:
		return fmt.Errorf("fat-tree k %d: %w", c.FatTreeK, ErrInvalidParam)
	case c.Servers < c.Replication || c.Replication < 1:
		return fmt.Errorf("servers=%d rf=%d: %w", c.Servers, c.Replication, ErrInvalidParam)
	case c.Servers > c3.MaxServers:
		// Server IDs index C3's dense per-server tables.
		return fmt.Errorf("servers=%d above %d: %w", c.Servers, c3.MaxServers, ErrInvalidParam)
	case c.Parallelism < 1 || c.MeanServiceTime <= 0:
		return fmt.Errorf("np=%d tkv=%v: %w", c.Parallelism, c.MeanServiceTime, ErrInvalidParam)
	case c.FluctuationInterval < 0:
		return fmt.Errorf("fluctuation interval %v: %w", c.FluctuationInterval, ErrInvalidParam)
	case c.FluctuationInterval > 0 && c.FluctuationRange < 1:
		return fmt.Errorf("fluctuation range %v: %w", c.FluctuationRange, ErrInvalidParam)
	case c.VNodes < 1 || c.Keys < 2:
		return fmt.Errorf("vnodes=%d keys=%d: %w", c.VNodes, c.Keys, ErrInvalidParam)
	case c.ZipfTheta <= 0 || c.ZipfTheta > dist.MaxTheta:
		return fmt.Errorf("zipf theta %v outside (0, %v]: %w", c.ZipfTheta, dist.MaxTheta, ErrInvalidParam)
	case c.Clients < 1 || c.Generators < 1:
		return fmt.Errorf("clients=%d generators=%d: %w", c.Clients, c.Generators, ErrInvalidParam)
	case c.DemandSkew < 0 || c.DemandSkew > 1:
		return fmt.Errorf("demand skew %v: %w", c.DemandSkew, ErrInvalidParam)
	case c.Utilization <= 0 || c.Utilization > 2:
		return fmt.Errorf("utilization %v: %w", c.Utilization, ErrInvalidParam)
	case c.Requests < 1:
		return fmt.Errorf("requests %d: %w", c.Requests, ErrInvalidParam)
	case c.WarmupFraction < 0 || c.WarmupFraction > 1:
		return fmt.Errorf("warmup fraction %v: %w", c.WarmupFraction, ErrInvalidParam)
	case c.Scheme < SchemeCliRS || c.Scheme > SchemeNetRSCache:
		return fmt.Errorf("scheme %d: %w", int(c.Scheme), ErrInvalidParam)
	case c.WriteFraction < 0 || c.WriteFraction >= 1:
		return fmt.Errorf("write fraction %v outside [0, 1): %w", c.WriteFraction, ErrInvalidParam)
	case c.CacheBytes < 0:
		return fmt.Errorf("cache bytes %d: %w", c.CacheBytes, ErrInvalidParam)
	case c.CacheAdmitAfter < 0:
		return fmt.Errorf("cache admit-after %d: %w", c.CacheAdmitAfter, ErrInvalidParam)
	case c.CacheItemMinBytes < 0 || c.CacheItemMaxBytes < 0:
		return fmt.Errorf("cache item sizes [%d, %d]: %w", c.CacheItemMinBytes, c.CacheItemMaxBytes, ErrInvalidParam)
	case c.CacheBytes > 0 && !c.IsCacheScheme():
		return fmt.Errorf("cache bytes %d need scheme NetCache or NetRS+Cache, got %s: %w",
			c.CacheBytes, c.Scheme, ErrInvalidParam)
	case c.AccelMaxUtilization <= 0 || c.AccelMaxUtilization > 1:
		return fmt.Errorf("accel utilization cap %v: %w", c.AccelMaxUtilization, ErrInvalidParam)
	case c.ExtraHopBudgetFraction < 0:
		return fmt.Errorf("hop budget fraction %v: %w", c.ExtraHopBudgetFraction, ErrInvalidParam)
	case !c.PlacementMethod.IsSolver():
		return fmt.Errorf("placement method %v is not a solver: %w", c.PlacementMethod, ErrInvalidParam)
	case c.GroupMaxHosts < 0:
		return fmt.Errorf("group max hosts %d: %w", c.GroupMaxHosts, ErrInvalidParam)
	case c.TimelineBucket < 0:
		return fmt.Errorf("timeline bucket %v: %w", c.TimelineBucket, ErrInvalidParam)
	case c.ControllerInterval < 0:
		return fmt.Errorf("controller interval %v: %w", c.ControllerInterval, ErrInvalidParam)
	case c.ControllerInterval > 0 && c.Scheme != SchemeNetRSILP:
		return fmt.Errorf("controller interval %v needs scheme NetRS-ILP, got %s: %w",
			c.ControllerInterval, c.Scheme, ErrInvalidParam)
	case c.DemandShiftAt < 0 || c.DemandShiftAt >= 1:
		return fmt.Errorf("demand shift at %v: %w", c.DemandShiftAt, ErrInvalidParam)
	case c.DemandShiftAt > 0 && (c.DemandShiftFraction <= 0 || c.DemandShiftFraction > 1):
		return fmt.Errorf("demand shift fraction %v: %w", c.DemandShiftFraction, ErrInvalidParam)
	case c.DemandShiftAt > 0 && c.DemandSkew <= 0:
		return fmt.Errorf("demand shift needs demand skew > 0: %w", ErrInvalidParam)
	case c.Shards < 0:
		return fmt.Errorf("shards %d: %w", c.Shards, ErrInvalidParam)
	case c.Scenario.ReplayTracePath != "" && c.WriteFraction > 0:
		return fmt.Errorf("write fraction %v needs the synthetic source, not trace replay: %w", c.WriteFraction, ErrInvalidParam)
	case c.Scenario.ReplayTracePath != "" && c.DemandShiftAt > 0:
		return fmt.Errorf("demand shift needs the synthetic source, not trace replay: %w", ErrInvalidParam)
	}
	if err := c.Scenario.Validate(); err != nil {
		return err
	}
	if c.EffectiveShards() > 1 && c.Scheme == SchemeCliRSR95 && c.CancelDuplicates {
		return fmt.Errorf("shards: %s duplicate cancellation needs a single partition (Shards ≤ 1): %w", c.Scheme, ErrInvalidParam)
	}
	return nil
}
