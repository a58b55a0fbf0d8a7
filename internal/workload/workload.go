// Package workload generates the open-loop read workload of §V: a fixed
// population of clients and servers randomly deployed across end-hosts
// (one role per host), a set of Poisson workload generators whose
// aggregate rate realizes the target system utilization, Zipfian key
// popularity over a large key space, and optional client demand skew (x%
// of requests issued by 20% of the clients).
package workload

import (
	"errors"
	"fmt"
	"math"

	"netrs/internal/dist"
	"netrs/internal/sim"
	"netrs/internal/topo"
)

// ErrInvalidParam reports out-of-domain configuration.
var ErrInvalidParam = errors.New("workload: invalid parameter")

// Deployment assigns roles to end-hosts.
type Deployment struct {
	// ServerHosts[i] is the host of server i.
	ServerHosts []topo.NodeID
	// ClientHosts[i] is the host of client i.
	ClientHosts []topo.NodeID
}

// Deploy places servers and clients on uniformly random distinct hosts,
// each host taking at most one role (§V-A, citing measurement studies of
// real deployments).
func Deploy(t *topo.Topology, servers, clients int, rng *sim.RNG) (Deployment, error) {
	if t == nil {
		return Deployment{}, fmt.Errorf("nil topology: %w", ErrInvalidParam)
	}
	if servers < 1 || clients < 1 {
		return Deployment{}, fmt.Errorf("servers=%d clients=%d: %w", servers, clients, ErrInvalidParam)
	}
	hosts := t.Hosts()
	if servers+clients > len(hosts) {
		return Deployment{}, fmt.Errorf("%d roles exceed %d hosts: %w", servers+clients, len(hosts), ErrInvalidParam)
	}
	perm := rng.Perm(len(hosts))
	d := Deployment{
		ServerHosts: make([]topo.NodeID, servers),
		ClientHosts: make([]topo.NodeID, clients),
	}
	for i := 0; i < servers; i++ {
		d.ServerHosts[i] = hosts[perm[i]]
	}
	for i := 0; i < clients; i++ {
		d.ClientHosts[i] = hosts[perm[servers+i]]
	}
	return d, nil
}

// Request is one generated request.
type Request struct {
	// Index is the 0-based emission order.
	Index int
	// Client is the issuing client's index.
	Client int
	// Key is the accessed key.
	Key uint64
	// Write marks an update (WriteFraction of emissions); the rest are
	// reads.
	Write bool
}

// SourceConfig parameterizes the request source.
type SourceConfig struct {
	// Generators is the number of independent Poisson processes (200 in
	// the paper).
	Generators int
	// RatePerSec is the aggregate arrival rate A, split evenly across
	// generators.
	RatePerSec float64
	// Clients is the client population size.
	Clients int
	// DemandSkew is the fraction of requests issued by HotFraction of
	// the clients; 0 (or 1/… uniform share) means no skew. §V-B2
	// measures skew as "the percentage of requests issued by 20%
	// clients".
	DemandSkew float64
	// HotFraction is the fraction of clients that are "high-demand"
	// (0.2 in the paper). Ignored when DemandSkew is 0.
	HotFraction float64
	// Keys is the key-space size (100 million).
	Keys uint64
	// ZipfTheta is the Zipfian exponent (0.99).
	ZipfTheta float64
	// Total is the number of requests to emit before stopping.
	Total int
	// ShiftAt, when positive, enables the time-varying hotspot phase: once
	// this fraction of Total has been emitted, ShiftFraction of each
	// client's demand relocates to the client half a population away —
	// with demand skew, the hot set effectively moves to different racks
	// mid-run. Zero keeps the demand distribution static.
	ShiftAt float64
	// ShiftFraction is the fraction of demand that relocates at the shift
	// (1 moves the hot set entirely). Required in (0,1] when ShiftAt > 0.
	ShiftFraction float64
	// Modulation, when non-nil, shapes the aggregate arrival rate over the
	// run (scenario diurnal curves). Each generator still draws exactly the
	// interarrival sequence an unmodulated run draws — the drawn gap is
	// divided by the instantaneous rate factor afterwards — so enabling
	// modulation consumes no extra RNG and perturbs no other stream.
	Modulation *RateModulation
	// WriteFraction is the share of emissions flagged as writes, in
	// [0, 1). The write coin comes from the dedicated stream 6, derived
	// only when the fraction is positive, so a read-only run draws the
	// exact sequences it always has.
	WriteFraction float64
	// Spike, when non-nil, redirects a share of the requests emitted inside
	// a window to one hot key (scenario flash crowds). The base Zipf draw
	// still happens for every request; the redirect coin comes from the
	// dedicated stream 5, so the base key and client sequences stay
	// bit-identical to a spike-free run.
	Spike *KeySpike
}

// RateModulation is a periodic piecewise-linear (triangle) wave over the
// run's emission progress, used for diurnal-style load curves (a
// scenario's diurnal section). The wave starts at the trough: with Phase 0
// the rate ramps from (1−Amplitude)·A up to (1+Amplitude)·A and back,
// Cycles times over the run. A triangle wave needs only Floor, Abs,
// multiply, and add, so — unlike a sinusoid — its values are
// bit-reproducible on every platform.
type RateModulation struct {
	// Cycles is the number of full waves over the run's emissions (> 0).
	Cycles float64 `json:"cycles"`
	// Amplitude is the peak rate deviation as a fraction of the base rate,
	// in [0, 1): the instantaneous rate swings between (1−A)·A₀ and
	// (1+A)·A₀.
	Amplitude float64 `json:"amplitude"`
	// Phase offsets the wave's start position as a cycle fraction in [0, 1).
	Phase float64 `json:"phase,omitempty"`
}

// Validate checks the wave's parameters against their ranges.
func (m *RateModulation) Validate() error {
	if m.Cycles <= 0 {
		return fmt.Errorf("modulation cycles %v: %w", m.Cycles, ErrInvalidParam)
	}
	if m.Amplitude < 0 || m.Amplitude >= 1 {
		return fmt.Errorf("modulation amplitude %v outside [0, 1): %w", m.Amplitude, ErrInvalidParam)
	}
	if m.Phase < 0 || m.Phase >= 1 {
		return fmt.Errorf("modulation phase %v outside [0, 1): %w", m.Phase, ErrInvalidParam)
	}
	return nil
}

// factor returns the instantaneous rate multiplier at emission progress
// frac in [0, 1].
func (m *RateModulation) factor(frac float64) float64 {
	pos := m.Cycles*frac + m.Phase
	pos -= math.Floor(pos)
	return 1 + m.Amplitude*(1-4*math.Abs(pos-0.5))
}

// KeySpike is a flash-crowd window (a scenario's flashCrowd section):
// between emission fractions At and At+Duration, each emitted request
// redirects to Key with probability Share.
type KeySpike struct {
	// At is the window start as an emission fraction in [0, 1).
	At float64 `json:"atFraction"`
	// Duration is the window length as an emission fraction (> 0, with
	// At+Duration ≤ 1).
	Duration float64 `json:"durationFraction"`
	// Share is the per-request redirect probability in (0, 1].
	Share float64 `json:"share"`
	// Key is the spiked key (< Keys, checked by the source that knows the
	// key space).
	Key uint64 `json:"key"`
}

// Validate checks the window and the share against their ranges.
func (k *KeySpike) Validate() error {
	if k.At < 0 || k.At >= 1 {
		return fmt.Errorf("spike at %v outside [0, 1): %w", k.At, ErrInvalidParam)
	}
	if k.Duration <= 0 || k.At+k.Duration > 1 {
		return fmt.Errorf("spike window [%v, %v) outside (0, 1]: %w", k.At, k.At+k.Duration, ErrInvalidParam)
	}
	if k.Share <= 0 || k.Share > 1 {
		return fmt.Errorf("spike share %v outside (0, 1]: %w", k.Share, ErrInvalidParam)
	}
	return nil
}

func (c SourceConfig) validate() error {
	if c.Generators < 1 || c.RatePerSec <= 0 || c.Clients < 1 || c.Total < 1 {
		return fmt.Errorf("source %+v: %w", c, ErrInvalidParam)
	}
	if c.Keys < 2 || c.ZipfTheta <= 0 || c.ZipfTheta > dist.MaxTheta {
		return fmt.Errorf("keys=%d theta=%v: %w", c.Keys, c.ZipfTheta, ErrInvalidParam)
	}
	if c.DemandSkew < 0 || c.DemandSkew > 1 {
		return fmt.Errorf("demand skew %v: %w", c.DemandSkew, ErrInvalidParam)
	}
	if c.WriteFraction < 0 || c.WriteFraction >= 1 {
		return fmt.Errorf("write fraction %v: %w", c.WriteFraction, ErrInvalidParam)
	}
	if c.DemandSkew > 0 && (c.HotFraction <= 0 || c.HotFraction > 1) {
		return fmt.Errorf("hot fraction %v: %w", c.HotFraction, ErrInvalidParam)
	}
	if c.ShiftAt < 0 || c.ShiftAt >= 1 {
		return fmt.Errorf("shift at %v: %w", c.ShiftAt, ErrInvalidParam)
	}
	if c.ShiftAt > 0 && (c.ShiftFraction <= 0 || c.ShiftFraction > 1) {
		return fmt.Errorf("shift fraction %v: %w", c.ShiftFraction, ErrInvalidParam)
	}
	if c.Modulation != nil {
		if err := c.Modulation.Validate(); err != nil {
			return err
		}
	}
	if c.Spike != nil {
		if err := c.Spike.Validate(); err != nil {
			return err
		}
		if c.Spike.Key >= c.Keys {
			return fmt.Errorf("spike key %d outside key space %d: %w", c.Spike.Key, c.Keys, ErrInvalidParam)
		}
	}
	return nil
}

// Source is the open-loop workload as a pull iterator: Next returns the
// arrivals one by one in emission order. The generators tick on a private
// engine, which merges them by (instant, scheduling order) and stops after
// each emission, so the sequence is the one the generators would emit
// ticking on a simulation's own engine: their instants and draws depend
// only on the source's streams, and equal-instant ticks run in the order
// they were scheduled there too.
type Source struct {
	cfg     SourceConfig
	eng     *sim.Engine
	zipf    *dist.Zipf
	clients *dist.Alias
	// shifted is the post-shift client distribution, drawn from once
	// shiftIndex requests have been emitted; nil when ShiftAt is 0.
	shifted    *dist.Alias
	shiftIndex int
	// spikeRNG draws the flash-crowd redirect coins (stream 5); nil when
	// the source has no spike. spikeStart/spikeEnd bound the window in
	// emission indices.
	spikeRNG   *sim.RNG
	spikeStart int
	spikeEnd   int
	// writeRNG draws the write coins (stream 6); nil when WriteFraction
	// is zero, so read-only runs never derive the stream.
	writeRNG *sim.RNG
	procs    []*dist.Poisson
	emitted  int
	// req is the request the last tick emitted.
	req Request
	// tickFn is the shared tick handler: one func value for every
	// generator tick, so per-arrival scheduling stays allocation-free.
	tickFn sim.ArgHandler
}

// NewSource builds a request source with every generator's first tick
// scheduled.
func NewSource(cfg SourceConfig, rng *sim.RNG) (*Source, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Source{cfg: cfg, eng: sim.NewEngine()}
	s.tickFn = func(arg any) { s.tick(arg.(*dist.Poisson)) }

	z, err := dist.NewZipf(cfg.Keys, cfg.ZipfTheta, rng.Stream(1))
	if err != nil {
		return nil, err
	}
	s.zipf = z.Scrambled()

	weights := make([]float64, cfg.Clients)
	if cfg.DemandSkew > 0 {
		weights, err = dist.SkewedWeights(cfg.Clients, cfg.HotFraction, cfg.DemandSkew)
		if err != nil {
			return nil, err
		}
	} else {
		for i := range weights {
			weights[i] = 1
		}
	}
	s.clients, err = dist.NewAlias(weights, rng.Stream(2))
	if err != nil {
		return nil, err
	}

	if cfg.ShiftAt > 0 {
		// The post-shift distribution blends each client's weight with the
		// client half a population away: with skewed weights (hot clients
		// first), the hot demand lands on previously cold clients. Stream 4
		// keeps the pre-shift draw sequence bit-identical to a shift-free
		// run up to the shift point.
		post := make([]float64, cfg.Clients)
		for i := range post {
			j := (i + cfg.Clients/2) % cfg.Clients
			post[i] = (1-cfg.ShiftFraction)*weights[i] + cfg.ShiftFraction*weights[j]
		}
		s.shifted, err = dist.NewAlias(post, rng.Stream(4))
		if err != nil {
			return nil, err
		}
		s.shiftIndex = int(cfg.ShiftAt * float64(cfg.Total))
		if s.shiftIndex < 1 {
			s.shiftIndex = 1
		}
	}

	if cfg.Spike != nil {
		// Stream 5 is reserved for the redirect coins: a spike-free run
		// never derives it, so the base draw sequences stay bit-identical
		// outside (and even inside) the window.
		s.spikeRNG = rng.Stream(5)
		s.spikeStart = int(cfg.Spike.At * float64(cfg.Total))
		s.spikeEnd = s.spikeStart + int(cfg.Spike.Duration*float64(cfg.Total))
		if s.spikeEnd > cfg.Total {
			s.spikeEnd = cfg.Total
		}
	}

	if cfg.WriteFraction > 0 {
		// Stream 6 is reserved for write coins; like the spike stream it
		// is derived only when the feature is on.
		s.writeRNG = rng.Stream(6)
	}

	perGen := cfg.RatePerSec / float64(cfg.Generators)
	for g := 0; g < cfg.Generators; g++ {
		proc, err := dist.NewPoisson(perGen, rng.Stream(uint64(100+g)))
		if err != nil {
			return nil, err
		}
		s.procs = append(s.procs, proc)
		s.eng.MustScheduleArg(s.nextGap(proc), s.tickFn, proc)
	}
	return s, nil
}

// Next returns the next arrival's instant and request, or false once
// Total requests have been emitted.
func (s *Source) Next() (sim.Time, Request, bool) {
	if s.emitted >= s.cfg.Total {
		return 0, Request{}, false
	}
	s.eng.Run() // through the tick that emits, which stops the engine
	return s.eng.Now(), s.req, true
}

// nextGap draws proc's next interarrival and applies rate modulation. The
// draw itself is unconditional and unchanged, so a modulated source
// consumes exactly the stream positions an unmodulated one does.
func (s *Source) nextGap(proc *dist.Poisson) sim.Time {
	d := proc.NextInterarrival()
	if m := s.cfg.Modulation; m != nil {
		frac := float64(s.emitted) / float64(s.cfg.Total)
		d = sim.Time(float64(d) / m.factor(frac))
		if d < 1 {
			d = 1 // arrivals stay strictly ordered under any factor
		}
	}
	return d
}

// tick emits one request into s.req, schedules proc's next tick unless
// the source is drained, and stops the engine.
func (s *Source) tick(proc *dist.Poisson) {
	table := s.clients
	if s.shifted != nil && s.emitted >= s.shiftIndex {
		table = s.shifted
	}
	client := table.Draw()
	key := s.zipf.Draw()
	if s.spikeRNG != nil && s.emitted >= s.spikeStart && s.emitted < s.spikeEnd &&
		s.spikeRNG.Float64() < s.cfg.Spike.Share {
		key = s.cfg.Spike.Key
	}
	req := Request{
		Index:  s.emitted,
		Client: client,
		Key:    key,
	}
	if s.writeRNG != nil && s.writeRNG.Float64() < s.cfg.WriteFraction {
		req.Write = true
	}
	s.emitted++
	s.req = req
	if s.emitted < s.cfg.Total {
		s.eng.MustScheduleArg(s.nextGap(proc), s.tickFn, proc)
	}
	s.eng.Stop()
}

// UtilizationRate converts a target system utilization into the aggregate
// arrival rate A of §V-B: utilization = tkv·A/(Ns·Np), hence
// A = utilization·Ns·Np/tkv (in requests per second).
func UtilizationRate(utilization float64, servers, parallelism int, meanServiceTime sim.Time) (float64, error) {
	if utilization <= 0 || servers < 1 || parallelism < 1 || meanServiceTime <= 0 {
		return 0, fmt.Errorf("utilization=%v servers=%d np=%d tkv=%v: %w",
			utilization, servers, parallelism, meanServiceTime, ErrInvalidParam)
	}
	perServer := float64(parallelism) / (float64(meanServiceTime) / float64(sim.Second))
	return utilization * float64(servers) * perServer, nil
}
