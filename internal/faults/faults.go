// Package faults provides a deterministic fault-schedule subsystem for the
// NetRS experiments. The paper's §III-C names three DRS exception scenarios
// (accelerator overload, RSP updates, RSNode failure) but any resilience
// claim needs more than a single hardcoded crash: this package lets a run
// declare a timeline of typed fault events — RSNode crash and recovery,
// server slowdown/brownout, server crash and restart, link-delay spikes —
// in a scenario's faults section, validates them up front, and executes
// them on the simulation timeline as run-level actions at the barrier.
//
// Events are positioned either at an absolute simulated time (AtMs) or at a
// completed-request fraction (AtFraction); a fraction-positioned event
// fires at the same completion count on every scheme and load level, which
// keeps cross-scheme resilience comparisons aligned. Every action is
// dispatched through the Actions interface the experiment runner
// implements, so the package stays free of cluster dependencies and
// unit-testable against a fake.
package faults

import (
	"errors"
	"fmt"
	"strconv"

	"netrs/internal/stats"
)

// ErrInvalidSchedule reports a schedule that fails validation.
var ErrInvalidSchedule = errors.New("faults: invalid schedule")

// Kind names a fault-event type.
type Kind string

// The fault-event types.
const (
	// KindRSNodeCrash fails a NetRS operator (§III-C scenario iii): the
	// controller flips its traffic groups to Degraded Replica Selection.
	KindRSNodeCrash Kind = "rsnode-crash"
	// KindRSNodeRecover re-admits a previously crashed operator: the
	// controller restores the pre-failure group assignments.
	KindRSNodeRecover Kind = "rsnode-recover"
	// KindServerSlowdown multiplies a replica server's mean service time
	// (a brownout). Multiplier 1 restores nominal speed.
	KindServerSlowdown Kind = "server-slowdown"
	// KindServerCrash halts a replica server: queued and newly submitted
	// requests wait until the matching restart.
	KindServerCrash Kind = "server-crash"
	// KindServerRestart resumes a crashed server, draining its queue.
	KindServerRestart Kind = "server-restart"
	// KindLinkDelay adds extra latency to every fabric edge incident to a
	// rack's ToR switch (a localized congestion spike). ExtraMs 0 clears.
	KindLinkDelay Kind = "link-delay"
)

// RSNode target sentinels. A numeric string targets that operator ID.
const (
	// TargetBusiest crashes the operator with the most selections at fire
	// time (skipping already-failed operators), resolved deterministically
	// in topology switch order.
	TargetBusiest = "busiest"
	// TargetFailed recovers the most recently crashed operator.
	TargetFailed = "failed"
)

// Event is one declared fault. Exactly one of AtMs and AtFraction positions
// it: AtMs on the simulated clock, AtFraction at the point where that
// fraction of the run's total requests has completed.
type Event struct {
	// Kind selects the fault type.
	Kind Kind `json:"kind"`
	// AtMs is the absolute simulated fire time in milliseconds.
	AtMs float64 `json:"atMs,omitempty"`
	// AtFraction is the completed-request fraction in (0, 1).
	AtFraction float64 `json:"atFraction,omitempty"`
	// RSNode targets rsnode events: "busiest", "failed", or a decimal
	// operator ID.
	RSNode string `json:"rsnode,omitempty"`
	// Server is the replica-server index for server events (0-based).
	Server int `json:"server,omitempty"`
	// Multiplier is the server-slowdown service-time factor (> 0).
	Multiplier float64 `json:"multiplier,omitempty"`
	// Rack is the rack whose ToR-incident links a link-delay event hits.
	Rack int `json:"rack,omitempty"`
	// ExtraMs is the link-delay addition per hop in milliseconds.
	ExtraMs float64 `json:"extraMs,omitempty"`
	// DurationMs, when positive, automatically reverts the fault this long
	// after it fires: crash → recover/restart, slowdown → multiplier 1,
	// link-delay → 0. Zero leaves the fault in place (or until an explicit
	// inverse event).
	DurationMs float64 `json:"durationMs,omitempty"`
}

// String renders the event compactly for error reports and logs.
func (e Event) String() string {
	at := fmt.Sprintf("@%.3fms", e.AtMs)
	if e.AtFraction > 0 {
		at = fmt.Sprintf("@%.0f%%", 100*e.AtFraction)
	}
	switch e.Kind {
	case KindRSNodeCrash, KindRSNodeRecover:
		return fmt.Sprintf("%s(%s)%s", e.Kind, e.RSNode, at)
	case KindServerSlowdown:
		return fmt.Sprintf("%s(server=%d,x%g)%s", e.Kind, e.Server, e.Multiplier, at)
	case KindServerCrash, KindServerRestart:
		return fmt.Sprintf("%s(server=%d)%s", e.Kind, e.Server, at)
	case KindLinkDelay:
		return fmt.Sprintf("%s(rack=%d,+%gms)%s", e.Kind, e.Rack, e.ExtraMs, at)
	default:
		return fmt.Sprintf("%s%s", e.Kind, at)
	}
}

// Validate checks one event's internal consistency.
func (e Event) Validate() error {
	hasTime := e.AtMs > 0
	hasFrac := !stats.IsZero(e.AtFraction)
	if hasTime == hasFrac {
		return fmt.Errorf("event %s: exactly one of atMs (> 0) and atFraction must be set: %w", e.Kind, ErrInvalidSchedule)
	}
	if hasFrac && (e.AtFraction <= 0 || e.AtFraction >= 1) {
		return fmt.Errorf("event %s: atFraction %v outside (0, 1): %w", e.Kind, e.AtFraction, ErrInvalidSchedule)
	}
	if e.DurationMs < 0 {
		return fmt.Errorf("event %s: negative durationMs %v: %w", e.Kind, e.DurationMs, ErrInvalidSchedule)
	}
	switch e.Kind {
	case KindRSNodeCrash:
		if err := validateRSNodeTarget(e.RSNode, false); err != nil {
			return err
		}
	case KindRSNodeRecover:
		if err := validateRSNodeTarget(e.RSNode, true); err != nil {
			return err
		}
		if e.DurationMs > 0 {
			return fmt.Errorf("event %s: durationMs on a recovery event: %w", e.Kind, ErrInvalidSchedule)
		}
	case KindServerSlowdown:
		if e.Server < 0 {
			return fmt.Errorf("event %s: server %d: %w", e.Kind, e.Server, ErrInvalidSchedule)
		}
		if e.Multiplier <= 0 {
			return fmt.Errorf("event %s: multiplier %v must be > 0: %w", e.Kind, e.Multiplier, ErrInvalidSchedule)
		}
	case KindServerCrash:
		if e.Server < 0 {
			return fmt.Errorf("event %s: server %d: %w", e.Kind, e.Server, ErrInvalidSchedule)
		}
	case KindServerRestart:
		if e.Server < 0 {
			return fmt.Errorf("event %s: server %d: %w", e.Kind, e.Server, ErrInvalidSchedule)
		}
		if e.DurationMs > 0 {
			return fmt.Errorf("event %s: durationMs on a restart event: %w", e.Kind, ErrInvalidSchedule)
		}
	case KindLinkDelay:
		if e.Rack < 0 {
			return fmt.Errorf("event %s: rack %d: %w", e.Kind, e.Rack, ErrInvalidSchedule)
		}
		if e.ExtraMs < 0 {
			return fmt.Errorf("event %s: extraMs %v: %w", e.Kind, e.ExtraMs, ErrInvalidSchedule)
		}
	default:
		return fmt.Errorf("unknown event kind %q: %w", e.Kind, ErrInvalidSchedule)
	}
	return nil
}

// validateRSNodeTarget accepts the sentinels and positive decimal IDs.
func validateRSNodeTarget(target string, recover bool) error {
	switch target {
	case TargetBusiest:
		if recover {
			return fmt.Errorf("rsnode target %q on a recovery event: %w", target, ErrInvalidSchedule)
		}
		return nil
	case TargetFailed:
		if !recover {
			return fmt.Errorf("rsnode target %q on a crash event: %w", target, ErrInvalidSchedule)
		}
		return nil
	case "":
		return fmt.Errorf("rsnode event without a target: %w", ErrInvalidSchedule)
	}
	id, err := strconv.ParseUint(target, 10, 16)
	if err != nil || id == 0 {
		return fmt.Errorf("rsnode target %q is neither a sentinel nor a positive operator ID: %w", target, ErrInvalidSchedule)
	}
	return nil
}

// ValidateEvents checks a whole schedule.
func ValidateEvents(events []Event) error {
	for i, e := range events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}
