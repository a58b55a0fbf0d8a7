// Package scenario provides a declarative library of composite stress
// scenarios for the NetRS experiments. The paper evaluates every scheme
// under one steady workload shape, but the in-network-selection claim —
// operators adapt where client-side selectors cannot — only shows its
// edges under adversarial conditions. A Scenario declares those
// conditions in configuration or a JSON file, using the same design
// language as internal/faults schedules: typed sections, up-front
// validation against a wrapped sentinel error, and omitempty JSON tags.
//
// Each section compiles into a deterministic hook on an existing
// subsystem:
//
//   - Diurnal — a triangle-wave arrival-rate curve (a
//     workload.RateModulation), applied inside workload.Source by
//     rescaling drawn interarrivals (no extra RNG).
//   - FlashCrowd — a hot-key window (a workload.KeySpike), applied inside
//     workload.Source from the reserved stream 5 (base draw sequences stay
//     bit-identical).
//   - SlowRacks — static extra latency on a rack's ToR-incident links,
//     applied through fabric.Network.SetLinkExtra at setup.
//   - Heterogeneous — per-class server service-time multipliers, applied
//     through kv.Server.SetSlowdown before the run starts.
//   - ReplayTracePath — replays a recorded trace through the runner's
//     arrival streams instead of the synthetic source.
//   - Faults — the run's one fault schedule, executed by the fault
//     injector (see internal/faults).
//
// Workload and static fabric/server hooks consume no scheduler events and
// no root RNG streams, so a sharded run's arrival streams replay the
// shaped source, or the trace, exactly. Fault events run at the sharded
// engine's barrier, so every scenario runs at any shard count.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"

	"netrs/internal/faults"
	"netrs/internal/workload"
)

// ErrInvalidScenario reports a scenario that fails validation.
var ErrInvalidScenario = errors.New("scenario: invalid scenario")

// SlowRack adds static extra latency to every fabric edge incident to one
// rack's ToR switch, for the whole run — a persistently congested or
// misconfigured rack, as opposed to the transient link-delay fault event.
type SlowRack struct {
	// Rack is the 0-based rack index (validated against the topology at
	// run setup).
	Rack int `json:"rack"`
	// ExtraMs is the added latency per hop in milliseconds (> 0).
	ExtraMs float64 `json:"extraMs"`
}

// ServerClass assigns a service-time multiplier to a contiguous fraction
// of the server population. Classes carve the population in declaration
// order: the first class covers server indices [0, Fraction·N), the next
// the following block, and so on; servers beyond the declared classes keep
// nominal speed.
type ServerClass struct {
	// Fraction is the share of servers in this class, in (0, 1].
	Fraction float64 `json:"fraction"`
	// Multiplier scales the class's mean service time (> 0; above 1 is
	// slower hardware, below 1 faster).
	Multiplier float64 `json:"multiplier"`
}

// Scenario is one declared composite stress scenario. The zero value is
// the steady baseline (no hooks). All sections compose freely except
// where Validate says otherwise (workload shaping versus trace replay).
type Scenario struct {
	// Name identifies the scenario in tables and CLI flags.
	Name string `json:"name,omitempty"`
	// Diurnal, when non-nil, shapes the arrival rate over the run.
	Diurnal *workload.RateModulation `json:"diurnal,omitempty"`
	// FlashCrowd, when non-nil, spikes one hot key inside a window (the
	// key is checked against the key space at run setup).
	FlashCrowd *workload.KeySpike `json:"flashCrowd,omitempty"`
	// SlowRacks lists racks with persistently slow ToR links.
	SlowRacks []SlowRack `json:"slowRacks,omitempty"`
	// Heterogeneous declares server speed classes.
	Heterogeneous []ServerClass `json:"heterogeneous,omitempty"`
	// ReplayTracePath replays a recorded workload trace instead of the
	// synthetic source.
	ReplayTracePath string `json:"replayTracePath,omitempty"`
	// Faults is the run's fault schedule (see internal/faults).
	Faults []faults.Event `json:"faults,omitempty"`
}

// Validate checks the scenario's internal consistency. The zero value is
// valid.
func (s Scenario) Validate() error {
	if s.Diurnal != nil {
		if err := s.Diurnal.Validate(); err != nil {
			return fmt.Errorf("diurnal: %v: %w", err, ErrInvalidScenario)
		}
	}
	if s.FlashCrowd != nil {
		if err := s.FlashCrowd.Validate(); err != nil {
			return fmt.Errorf("flash crowd: %v: %w", err, ErrInvalidScenario)
		}
	}
	seen := make(map[int]bool, len(s.SlowRacks))
	for i, r := range s.SlowRacks {
		if r.Rack < 0 {
			return fmt.Errorf("slow rack %d: rack %d: %w", i, r.Rack, ErrInvalidScenario)
		}
		if r.ExtraMs <= 0 {
			return fmt.Errorf("slow rack %d: extraMs %v must be > 0: %w", i, r.ExtraMs, ErrInvalidScenario)
		}
		if seen[r.Rack] {
			return fmt.Errorf("slow rack %d: rack %d declared twice: %w", i, r.Rack, ErrInvalidScenario)
		}
		seen[r.Rack] = true
	}
	total := 0.0
	for i, c := range s.Heterogeneous {
		if c.Fraction <= 0 || c.Fraction > 1 {
			return fmt.Errorf("server class %d: fraction %v outside (0, 1]: %w", i, c.Fraction, ErrInvalidScenario)
		}
		if c.Multiplier <= 0 {
			return fmt.Errorf("server class %d: multiplier %v must be > 0: %w", i, c.Multiplier, ErrInvalidScenario)
		}
		total += c.Fraction
	}
	if total > 1 {
		return fmt.Errorf("server class fractions sum to %v > 1: %w", total, ErrInvalidScenario)
	}
	if s.ReplayTracePath != "" && s.ShapesWorkload() {
		return fmt.Errorf("diurnal/flash-crowd shaping needs the synthetic source, not trace replay: %w", ErrInvalidScenario)
	}
	if err := faults.ValidateEvents(s.Faults); err != nil {
		return fmt.Errorf("%v: %w", err, ErrInvalidScenario)
	}
	return nil
}

// Empty reports whether the scenario declares no hooks at all (the steady
// baseline, whatever its name).
func (s Scenario) Empty() bool {
	return s.Diurnal == nil && s.FlashCrowd == nil && len(s.SlowRacks) == 0 &&
		len(s.Heterogeneous) == 0 && s.ReplayTracePath == "" && len(s.Faults) == 0
}

// ShapesWorkload reports whether the scenario modifies the synthetic
// request stream (and therefore cannot combine with trace replay).
func (s Scenario) ShapesWorkload() bool {
	return s.Diurnal != nil || s.FlashCrowd != nil
}

// Label names the scenario in tables: Name when set, "custom" otherwise.
func (s Scenario) Label() string {
	if s.Name != "" {
		return s.Name
	}
	return "custom"
}

// ServerMultiplier returns the service-time multiplier for server index
// server out of servers total: classes carve contiguous index ranges in
// declaration order, and unclassified servers run at nominal speed (1).
func (s Scenario) ServerMultiplier(server, servers int) float64 {
	if servers < 1 || server < 0 || server >= servers {
		return 1
	}
	cum := 0.0
	start := 0
	for _, c := range s.Heterogeneous {
		cum += c.Fraction
		end := int(cum * float64(servers))
		if end > servers {
			end = servers
		}
		if server >= start && server < end {
			return c.Multiplier
		}
		start = end
	}
	return 1
}

// Parse decodes and validates a JSON scenario. Unlike fault schedules, an
// empty scenario is legal — it is the steady baseline. Decoded scenarios
// are canonical: empty list sections collapse to nil, so encode∘decode is
// a fixed point ("slowRacks":[] and an absent key mean the same thing).
func Parse(data []byte) (Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return Scenario{}, fmt.Errorf("scenario: parse: %w", err)
	}
	if len(s.SlowRacks) == 0 {
		s.SlowRacks = nil
	}
	if len(s.Heterogeneous) == 0 {
		s.Heterogeneous = nil
	}
	if len(s.Faults) == 0 {
		s.Faults = nil
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// Load reads and validates a scenario file.
func Load(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario: read: %w", err)
	}
	return Parse(data)
}

// Builtins returns the built-in scenario library, sorted by name. The
// values are fresh copies on every call — callers may mutate them freely.
func Builtins() []Scenario {
	return []Scenario{
		{
			Name:    "diurnal",
			Diurnal: &workload.RateModulation{Cycles: 3, Amplitude: 0.4},
		},
		{
			Name:       "flash-crowd",
			FlashCrowd: &workload.KeySpike{At: 0.4, Duration: 0.2, Share: 0.5, Key: 1},
		},
		{
			Name: "heterogeneous",
			Heterogeneous: []ServerClass{
				{Fraction: 0.25, Multiplier: 2},
				{Fraction: 0.25, Multiplier: 0.8},
			},
		},
		{
			Name:      "slow-rack",
			SlowRacks: []SlowRack{{Rack: 0, ExtraMs: 0.2}},
		},
		{
			Name: "steady",
		},
	}
}

// Names lists the built-in scenario names, sorted.
func Names() []string {
	builtins := Builtins()
	names := make([]string, len(builtins))
	for i, s := range builtins {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// ByName resolves a built-in scenario.
func ByName(name string) (Scenario, error) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown built-in %q (have %v)", name, Names())
}
