package netrs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"netrs/internal/placement"
)

// configJSON is the serialized experiment configuration. It mirrors
// Config with explicit unit-suffixed fields (per the convention that
// serialized durations carry their unit in the name) so saved experiments
// remain readable and stable.
type configJSON struct {
	Seed                   uint64  `json:"seed"`
	FatTreeK               int     `json:"fatTreeK"`
	Servers                int     `json:"servers"`
	Parallelism            int     `json:"parallelism"`
	MeanServiceTimeUs      float64 `json:"meanServiceTimeUs"`
	FluctuationIntervalUs  float64 `json:"fluctuationIntervalUs"`
	FluctuationRange       float64 `json:"fluctuationRange"`
	Replication            int     `json:"replication"`
	VNodes                 int     `json:"vnodes"`
	Keys                   uint64  `json:"keys"`
	ZipfTheta              float64 `json:"zipfTheta"`
	Clients                int     `json:"clients"`
	Generators             int     `json:"generators"`
	DemandSkew             float64 `json:"demandSkew"`
	HotClientFraction      float64 `json:"hotClientFraction"`
	Utilization            float64 `json:"utilization"`
	Requests               int     `json:"requests"`
	WarmupFraction         float64 `json:"warmupFraction"`
	Scheme                 string  `json:"scheme"`
	RateControl            bool    `json:"rateControl"`
	OperatorAlgorithm      string  `json:"operatorAlgorithm,omitempty"`
	LinkLatencyUs          float64 `json:"linkLatencyUs"`
	AccelRTTUs             float64 `json:"accelRttUs"`
	AccelServiceUs         float64 `json:"accelServiceUs"`
	AccelCores             int     `json:"accelCores"`
	AccelMaxUtilization    float64 `json:"accelMaxUtilization"`
	ExtraHopBudgetFraction float64 `json:"extraHopBudgetFraction"`
	RackLevelGroups        bool    `json:"rackLevelGroups"`
	GroupMaxHosts          int     `json:"groupMaxHosts,omitempty"`
	PlacementMethod        string  `json:"placementMethod,omitempty"`
	RedundantPercentile    float64 `json:"redundantPercentile"`
	CancelDuplicates       bool    `json:"cancelDuplicates,omitempty"`

	// Faults and TimelineBucketMs carry the declared fault schedule and
	// the resilience-timeline bucket width; fault event times already use
	// unit-suffixed keys (atMs, extraMs, durationMs).
	Faults           []FaultEvent `json:"faults,omitempty"`
	TimelineBucketMs float64      `json:"timelineBucketMs,omitempty"`

	// Controller epochs and the time-varying demand shift.
	ControllerIntervalMs float64 `json:"controllerIntervalMs,omitempty"`
	DemandShiftAt        float64 `json:"demandShiftAt,omitempty"`
	DemandShiftFraction  float64 `json:"demandShiftFraction,omitempty"`

	// The in-network cache tier (NetCache / NetRS+Cache schemes) and the
	// workload write mix feeding its invalidation traffic.
	WriteFraction     float64 `json:"writeFraction,omitempty"`
	CacheBytes        int64   `json:"cacheBytes,omitempty"`
	CacheAdmitAfter   int     `json:"cacheAdmitAfter,omitempty"`
	CacheItemMinBytes int64   `json:"cacheItemMinBytes,omitempty"`
	CacheItemMaxBytes int64   `json:"cacheItemMaxBytes,omitempty"`

	// Scenario embeds the declared stress scenario (internal/scenario's
	// own JSON schema, also accepted standalone by `netrs-sim -scenario`).
	Scenario *Scenario `json:"scenario,omitempty"`

	// Recording and execution knobs: they change what a run keeps and how
	// many workers it uses, not the simulated experiment.
	KeepLatencyTrace bool `json:"keepLatencyTrace,omitempty"`
	StatsSampleCap   int  `json:"statsSampleCap,omitempty"`
	Shards           int  `json:"shards,omitempty"`
}

// MarshalConfig serializes a Config to indented JSON.
func MarshalConfig(cfg Config) ([]byte, error) {
	j := configJSON{
		Seed:                   cfg.Seed,
		FatTreeK:               cfg.FatTreeK,
		Servers:                cfg.Servers,
		Parallelism:            cfg.Parallelism,
		MeanServiceTimeUs:      cfg.MeanServiceTime.Float64Us(),
		FluctuationIntervalUs:  cfg.FluctuationInterval.Float64Us(),
		FluctuationRange:       cfg.FluctuationRange,
		Replication:            cfg.Replication,
		VNodes:                 cfg.VNodes,
		Keys:                   cfg.Keys,
		ZipfTheta:              cfg.ZipfTheta,
		Clients:                cfg.Clients,
		Generators:             cfg.Generators,
		DemandSkew:             cfg.DemandSkew,
		HotClientFraction:      cfg.HotClientFraction,
		Utilization:            cfg.Utilization,
		Requests:               cfg.Requests,
		WarmupFraction:         cfg.WarmupFraction,
		Scheme:                 cfg.Scheme.String(),
		RateControl:            cfg.RateControl,
		OperatorAlgorithm:      cfg.OperatorAlgorithm,
		LinkLatencyUs:          cfg.Fabric.LinkLatency.Float64Us(),
		AccelRTTUs:             cfg.Fabric.AccelRTT.Float64Us(),
		AccelServiceUs:         cfg.Fabric.AccelService.Float64Us(),
		AccelCores:             cfg.Fabric.AccelCores,
		AccelMaxUtilization:    cfg.AccelMaxUtilization,
		ExtraHopBudgetFraction: cfg.ExtraHopBudgetFraction,
		RackLevelGroups:        cfg.RackLevelGroups,
		GroupMaxHosts:          cfg.GroupMaxHosts,
		RedundantPercentile:    cfg.RedundantPercentile,
		CancelDuplicates:       cfg.CancelDuplicates,
		Faults:                 cfg.Faults,
		TimelineBucketMs:       cfg.TimelineBucket.Float64Ms(),
		ControllerIntervalMs:   cfg.ControllerInterval.Float64Ms(),
		DemandShiftAt:          cfg.DemandShiftAt,
		DemandShiftFraction:    cfg.DemandShiftFraction,
		WriteFraction:          cfg.WriteFraction,
		CacheBytes:             cfg.CacheBytes,
		CacheAdmitAfter:        cfg.CacheAdmitAfter,
		CacheItemMinBytes:      cfg.CacheItemMinBytes,
		CacheItemMaxBytes:      cfg.CacheItemMaxBytes,
		KeepLatencyTrace:       cfg.KeepLatencyTrace,
		StatsSampleCap:         cfg.StatsSampleCap,
		Shards:                 cfg.Shards,
	}
	// The zero method means auto to the solver but has no name; leaving
	// the key out loads it as DefaultConfig's auto.
	if cfg.PlacementMethod != 0 {
		j.PlacementMethod = cfg.PlacementMethod.String()
	}
	if !cfg.Scenario.Empty() || cfg.Scenario.Name != "" {
		scn := cfg.Scenario
		j.Scenario = &scn
	}
	return json.MarshalIndent(j, "", "  ")
}

// UnmarshalConfig parses a Config from JSON produced by MarshalConfig.
// Unknown keys are an error, so a misspelled or retired field cannot be
// silently ignored.
func UnmarshalConfig(data []byte) (Config, error) {
	var j configJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return Config{}, fmt.Errorf("netrs: parse config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Config{}, fmt.Errorf("netrs: parse config: data after the config object")
	}
	scheme, err := ParseScheme(j.Scheme)
	if err != nil {
		return Config{}, err
	}
	cfg := DefaultConfig()
	cfg.Seed = j.Seed
	cfg.FatTreeK = j.FatTreeK
	cfg.Servers = j.Servers
	cfg.Parallelism = j.Parallelism
	cfg.MeanServiceTime = Time(j.MeanServiceTimeUs * float64(Microsecond))
	cfg.FluctuationInterval = Time(j.FluctuationIntervalUs * float64(Microsecond))
	cfg.FluctuationRange = j.FluctuationRange
	cfg.Replication = j.Replication
	cfg.VNodes = j.VNodes
	cfg.Keys = j.Keys
	cfg.ZipfTheta = j.ZipfTheta
	cfg.Clients = j.Clients
	cfg.Generators = j.Generators
	cfg.DemandSkew = j.DemandSkew
	cfg.HotClientFraction = j.HotClientFraction
	cfg.Utilization = j.Utilization
	cfg.Requests = j.Requests
	cfg.WarmupFraction = j.WarmupFraction
	cfg.Scheme = scheme
	cfg.RateControl = j.RateControl
	cfg.OperatorAlgorithm = j.OperatorAlgorithm
	cfg.Fabric.LinkLatency = Time(j.LinkLatencyUs * float64(Microsecond))
	cfg.Fabric.AccelRTT = Time(j.AccelRTTUs * float64(Microsecond))
	cfg.Fabric.AccelService = Time(j.AccelServiceUs * float64(Microsecond))
	cfg.Fabric.AccelCores = j.AccelCores
	cfg.AccelMaxUtilization = j.AccelMaxUtilization
	cfg.ExtraHopBudgetFraction = j.ExtraHopBudgetFraction
	cfg.RackLevelGroups = j.RackLevelGroups
	cfg.GroupMaxHosts = j.GroupMaxHosts
	if j.PlacementMethod != "" {
		if cfg.PlacementMethod, err = placement.ParseMethod(j.PlacementMethod); err != nil {
			return Config{}, fmt.Errorf("netrs: parse config: %w", err)
		}
	}
	cfg.RedundantPercentile = j.RedundantPercentile
	cfg.CancelDuplicates = j.CancelDuplicates
	cfg.Faults = j.Faults
	cfg.TimelineBucket = Time(j.TimelineBucketMs * float64(Millisecond))
	cfg.ControllerInterval = Time(j.ControllerIntervalMs * float64(Millisecond))
	cfg.DemandShiftAt = j.DemandShiftAt
	cfg.DemandShiftFraction = j.DemandShiftFraction
	cfg.WriteFraction = j.WriteFraction
	cfg.CacheBytes = j.CacheBytes
	cfg.CacheAdmitAfter = j.CacheAdmitAfter
	cfg.CacheItemMinBytes = j.CacheItemMinBytes
	cfg.CacheItemMaxBytes = j.CacheItemMaxBytes
	cfg.KeepLatencyTrace = j.KeepLatencyTrace
	cfg.StatsSampleCap = j.StatsSampleCap
	cfg.Shards = j.Shards
	if j.Scenario != nil {
		if err := j.Scenario.Validate(); err != nil {
			return Config{}, err
		}
		cfg.Scenario = *j.Scenario
	}
	return cfg, nil
}

// SaveConfig writes a Config to a JSON file.
func SaveConfig(path string, cfg Config) error {
	data, err := MarshalConfig(cfg)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("netrs: write config: %w", err)
	}
	return nil
}

// LoadConfig reads a Config from a JSON file.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("netrs: read config: %w", err)
	}
	return UnmarshalConfig(data)
}
