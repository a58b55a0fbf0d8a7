// Package selection defines the replica-selection abstraction every
// RSNode in the reproduction uses — whether the RSNode is a client
// (CliRS), a ToR operator (NetRS-ToR), or an ILP-placed operator
// (NetRS-ILP) — together with the baseline algorithms the literature
// compares against (§VI): random, round-robin, least-outstanding-requests,
// the power of two choices, a Cassandra-style dynamic snitch, and the
// timeliness-aware Tars. The C3 algorithm itself lives in package c3, and
// *c3.Selector implements Selector directly.
package selection

import (
	"errors"
	"fmt"

	"netrs/internal/c3"
	"netrs/internal/kv"
	"netrs/internal/sim"
)

// Errors shared by selectors.
var (
	ErrInvalidParam = errors.New("selection: invalid parameter")
	ErrNoCandidates = errors.New("selection: empty candidate set")
)

// Selector picks replicas for read requests and learns from responses.
// Implementations are single-threaded, like the simulation that drives
// them.
type Selector interface {
	// Pick chooses a replica among candidates and reserves the send. A
	// positive delay instructs the caller to hold the request (rate
	// shaping); most algorithms always return zero.
	Pick(candidates []int) (server int, delay sim.Time, err error)
	// Rank appends candidates to dst from most to least preferred, without
	// reserving anything, and returns the extended slice; schemes use it
	// for backup replicas (DRS). A caller that ranks on every request
	// passes its own buffer back in, so the ordering does not allocate.
	Rank(dst, candidates []int) []int
	// OnResponse feeds back an observed response.
	OnResponse(server int, latency sim.Time, status kv.Status)
	// Name identifies the algorithm.
	Name() string
}

// Algorithm names accepted by New.
const (
	AlgoC3               = "c3"
	AlgoC3NoRate         = "c3-norate"
	AlgoRandom           = "random"
	AlgoRoundRobin       = "roundrobin"
	AlgoLeastOutstanding = "lor"
	AlgoTwoChoices       = "p2c"
	AlgoDynamicSnitch    = "snitch"
	AlgoTars             = "tars"
)

// Algorithms lists every algorithm New understands.
func Algorithms() []string {
	return []string{
		AlgoC3, AlgoC3NoRate, AlgoRandom, AlgoRoundRobin,
		AlgoLeastOutstanding, AlgoTwoChoices, AlgoDynamicSnitch, AlgoTars,
	}
}

// New constructs a selector by algorithm name. The engine drives C3's
// rate-control clock; rng feeds the randomized baselines.
func New(name string, eng *sim.Engine, rng *sim.RNG) (Selector, error) {
	switch name {
	case AlgoC3, AlgoC3NoRate:
		cfg := c3.NewDefaultConfig()
		cfg.RateControl = name == AlgoC3
		return c3.NewSelector(cfg, eng)
	case AlgoRandom:
		if rng == nil {
			return nil, fmt.Errorf("random selector needs an rng: %w", ErrInvalidParam)
		}
		return &Random{rng: rng}, nil
	case AlgoRoundRobin:
		return &RoundRobin{}, nil
	case AlgoLeastOutstanding:
		return NewLeastOutstanding(), nil
	case AlgoTwoChoices:
		if rng == nil {
			return nil, fmt.Errorf("p2c selector needs an rng: %w", ErrInvalidParam)
		}
		return NewTwoChoices(rng), nil
	case AlgoDynamicSnitch:
		return NewDynamicSnitch()
	case AlgoTars:
		return NewTars()
	default:
		return nil, fmt.Errorf("unknown algorithm %q: %w", name, ErrInvalidParam)
	}
}
