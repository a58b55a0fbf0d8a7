// Package c3 implements the C3 adaptive replica-selection algorithm
// (Suresh et al., "C3: Cutting Tail Latency in Cloud Data Stores via
// Adaptive Replica Selection", NSDI 2015), the state-of-the-art algorithm
// the NetRS paper runs at every RSNode.
//
// C3 has two cooperating pieces:
//
//   - Replica ranking: each RSNode keeps, per server, EWMAs of observed
//     response times (R̄), of the piggybacked service times (S̄ = 1/µ̄),
//     and of the piggybacked queue sizes (q̄), plus a count of its own
//     outstanding requests (os). Servers are ranked by the cubic scoring
//     function Ψ = R̄ − S̄ + q̂³·S̄ with q̂ = 1 + os·w + q̄, where w is the
//     concurrency-compensation weight (the number of RSNodes sharing the
//     servers). The cubic exponent penalizes long queues steeply, which
//     prevents herding onto the momentarily fastest server.
//
//   - Cubic rate control: per server, the RSNode shapes its sending rate
//     with a TCP-CUBIC-style window so it backs off multiplicatively when
//     it sends faster than responses return and then re-grows along a
//     cubic curve.
package c3

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"netrs/internal/kv"
	"netrs/internal/sim"
)

// ErrInvalidParam reports a configuration value outside its domain.
var ErrInvalidParam = errors.New("c3: invalid parameter")

// Config parameterizes a C3 instance. NewDefaultConfig supplies the values
// used by the paper's experiments.
type Config struct {
	// Alpha is the EWMA smoothing factor for all moving averages.
	Alpha float64
	// ConcurrencyWeight is w, the multiplier on the RSNode's own
	// outstanding requests inside q̂. C3 sets it to the number of
	// selectors sharing the servers so that local outstanding counts
	// approximate global queue contributions.
	ConcurrencyWeight float64
	// RateControl enables cubic send-rate shaping.
	RateControl bool
	// RateInterval is the rate-accounting window δ.
	RateInterval sim.Time
	// CubicBeta is the multiplicative decrease factor (0.2 in C3).
	CubicBeta float64
	// CubicGamma is the cubic growth scaling factor in rate units per
	// interval³.
	CubicGamma float64
	// InitialRate is the per-server send allowance per interval before
	// any feedback arrives.
	InitialRate float64
	// MaxRate caps the per-server send allowance per interval.
	MaxRate float64
	// Servers is a capacity hint: the caller presents server IDs in
	// [0, Servers), so the slot index is allocated at that size on the
	// selector's first server instead of growing with each larger ID. A
	// larger ID still works; 0 grows the index on demand.
	Servers int
}

// NewDefaultConfig returns the C3 parameters used throughout the
// reproduction: EWMA α 0.9, 20 ms rate interval, β 0.2.
func NewDefaultConfig() Config {
	return Config{
		Alpha:             0.9,
		ConcurrencyWeight: 1,
		RateControl:       true,
		RateInterval:      20 * sim.Millisecond,
		CubicBeta:         0.2,
		CubicGamma:        0.1,
		InitialRate:       10,
		MaxRate:           5000,
	}
}

func (c Config) validate() error {
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("alpha %v: %w", c.Alpha, ErrInvalidParam)
	}
	if c.ConcurrencyWeight < 0 {
		return fmt.Errorf("concurrency weight %v: %w", c.ConcurrencyWeight, ErrInvalidParam)
	}
	if c.Servers < 0 || c.Servers > MaxServers {
		return fmt.Errorf("servers %d outside [0, %d]: %w", c.Servers, MaxServers, ErrInvalidParam)
	}
	if c.RateControl {
		if c.RateInterval <= 0 {
			return fmt.Errorf("rate interval %v: %w", c.RateInterval, ErrInvalidParam)
		}
		if c.CubicBeta <= 0 || c.CubicBeta >= 1 {
			return fmt.Errorf("cubic beta %v: %w", c.CubicBeta, ErrInvalidParam)
		}
		if c.CubicGamma <= 0 {
			return fmt.Errorf("cubic gamma %v: %w", c.CubicGamma, ErrInvalidParam)
		}
		if c.InitialRate < 1 || c.MaxRate < c.InitialRate {
			return fmt.Errorf("rates init=%v max=%v: %w", c.InitialRate, c.MaxRate, ErrInvalidParam)
		}
	}
	return nil
}

// Clock supplies the current time to the rate controller. The simulation
// passes its engine; real-network deployments (internal/kvnet) pass a
// wall clock.
type Clock interface {
	Now() sim.Time
}

// rankState is the part of a server's state that score reads on every
// ranking: the three averages and the selector's own outstanding count.
// It fills 32 bytes, so two servers share a cache line. The averages are
// EWMAs with the selector-wide Config.Alpha: OnResponse folds one
// observation into all three at once, so they share one observation count
// (the first observation sets each average directly).
type rankState struct {
	respTime    float64 // R̄, ns
	svcTime     float64 // S̄, ns
	queueSize   float64 // q̄
	outstanding int32
	observed    uint32 // observations folded into the averages, saturating
}

// rateState is the cubic rate controller's per-server record. Only the
// server a Pick settles on, or a response comes back from, touches it, and
// only with rate control on: a selector without it has no rate records.
type rateState struct {
	rate        float64 // allowance per interval
	wMax        float64 // rate before the last decrease
	lastDrop    sim.Time
	interval    int64 // index of the interval the counters refer to
	sentCur     int   // sends executed in the current interval
	backlog     int   // sends booked into future intervals
	recvCur     int   // responses in the current interval
	everDropped bool
}

// stateBlock is how many server states one allocation block holds. Most
// client selectors at k=32 see a few dozen servers, so a small block
// wastes little on each of them.
const stateBlock = 16

// block holds the states of stateBlock servers under rate control: one
// heap object, with the rank records packed together so a ranking reads
// none of the rate-control fields.
type block struct {
	rank [stateBlock]rankState
	rate [stateBlock]rateState
}

// blockRef locates one block's records. Under rate control both point into
// one block; without it the selector allocates the rank records alone and
// rate is nil.
type blockRef struct {
	rank *[stateBlock]rankState
	rate *[stateBlock]rateState
}

// Selector is one C3 instance: the replica-selection state an RSNode keeps.
// It is not safe for concurrent use; the simulation is single-threaded and
// real-network users serialize access externally.
type Selector struct {
	cfg   Config
	clock Clock

	// slotOf maps a server ID to its state's slot + 1 (0: never seen). It
	// is a dense table, allocated on the first server seen at
	// Config.Servers entries (or that ID + 1, if larger) and grown only by
	// a larger ID: two bytes per ID cost less than a hash map's entries,
	// and a lookup is one index.
	slotOf []uint16
	// blocks hold the server states, slot i at index i%stateBlock of
	// blocks[i/stateBlock]. Blocks never move, so the state pointers
	// handed out stay valid, and a fleet of selectors (one per client)
	// costs one heap object per stateBlock servers instead of one per
	// server. states counts the slots in use.
	blocks []blockRef
	states int

	// rank is the reusable scratch Rank and Pick sort into; servers are
	// ranked on every request, so the ordering must not allocate.
	rank []scoredServer

	picks     uint64
	delayed   uint64
	decreases uint64
}

// scoredServer pairs a candidate with its Ψ score and state slot, for
// sorting without a side map and reserving without a second slot lookup.
type scoredServer struct {
	score  float64
	server int32
	slot   int32
}

// MaxServers bounds the server IDs a selector accepts: IDs lie in
// [0, MaxServers), so a slot + 1 always fits the uint16 slot index.
const MaxServers = 1<<16 - 1

// NewSelector returns a C3 instance bound to the engine's clock.
func NewSelector(cfg Config, eng *sim.Engine) (*Selector, error) {
	if eng == nil {
		return nil, fmt.Errorf("nil engine: %w", ErrInvalidParam)
	}
	return NewSelectorWithClock(cfg, eng)
}

// NewSelectorWithClock returns a C3 instance driven by an arbitrary clock.
func NewSelectorWithClock(cfg Config, clock Clock) (*Selector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if clock == nil {
		return nil, fmt.Errorf("nil clock: %w", ErrInvalidParam)
	}
	// The slot index and the state blocks are allocated lazily in slot():
	// a hyperscale run constructs thousands of selectors (one per client),
	// many of which see few servers or none.
	return &Selector{cfg: cfg, clock: clock}, nil
}

// validServer reports whether a server ID can index the dense tables.
func validServer(server int) bool { return server >= 0 && server < MaxServers }

// lookup returns the server's state slot without creating it; ok is false
// for a server the selector has never seen. The ID must satisfy
// validServer.
func (s *Selector) lookup(server int) (slot int, ok bool) {
	if server >= len(s.slotOf) || s.slotOf[server] == 0 {
		return 0, false
	}
	return int(s.slotOf[server]) - 1, true
}

// slot returns the server's state slot, creating the state on first
// sight. The ID must satisfy validServer.
func (s *Selector) slot(server int) int {
	if slot, ok := s.lookup(server); ok {
		return slot
	}
	switch {
	case s.slotOf == nil:
		s.slotOf = make([]uint16, max(server+1, s.cfg.Servers))
	case server >= len(s.slotOf):
		s.slotOf = append(s.slotOf, make([]uint16, server+1-len(s.slotOf))...)
	}
	slot := s.states
	// A fresh block is zeroed and slots are never reused, so the rank
	// record already reads as unobserved; only the rate starts nonzero.
	if s.cfg.RateControl {
		if slot%stateBlock == 0 {
			b := new(block)
			s.blocks = append(s.blocks, blockRef{rank: &b.rank, rate: &b.rate})
		}
		*s.rateAt(slot) = rateState{rate: s.cfg.InitialRate, wMax: s.cfg.InitialRate}
	} else if slot%stateBlock == 0 {
		s.blocks = append(s.blocks, blockRef{rank: new([stateBlock]rankState)})
	}
	s.states++
	s.slotOf[server] = uint16(s.states)
	return slot
}

// rankAt returns the rank record of a slot.
func (s *Selector) rankAt(slot int) *rankState {
	return &s.blocks[slot/stateBlock].rank[slot%stateBlock]
}

// rateAt returns the rate record of a slot. Only the rate-control paths
// call it: without rate control the selector has no rate records.
func (s *Selector) rateAt(slot int) *rateState {
	return &s.blocks[slot/stateBlock].rate[slot%stateBlock]
}

// score returns the C3 ranking function Ψ for a server; lower is better.
// q̂³ is two multiplications: for q̂ ≥ 1 they round exactly as
// math.Pow(q̂, 3) does, so the scores match a Pow-based Ψ bit for bit.
func (s *Selector) score(st *rankState) float64 {
	qHat := 1 + float64(st.outstanding)*s.cfg.ConcurrencyWeight + st.queueSize
	return st.respTime - st.svcTime + qHat*qHat*qHat*st.svcTime
}

// rankInto checks the candidates, then scores and stably sorts them into
// the selector's reusable scratch. The returned slice is valid until the
// next ranking call; callers that hand an ordering to the outside copy it
// out.
func (s *Selector) rankInto(candidates []int) ([]scoredServer, error) {
	for _, c := range candidates {
		if !validServer(c) {
			return nil, fmt.Errorf("server %d outside [0, %d): %w", c, MaxServers, ErrInvalidParam)
		}
	}
	r := s.rank[:0]
	for _, c := range candidates {
		slot := s.slot(c)
		r = append(r, scoredServer{score: s.score(s.rankAt(slot)), server: int32(c), slot: int32(slot)})
	}
	sortScored(r)
	s.rank = r
	return r, nil
}

// sortScored stably sorts r by compareScored. Up to stableBlock
// candidates, far past any replication factor in use, it runs the
// insertion sort that slices.SortStableFunc runs on inputs that short,
// written out: the same comparisons in the same order give the same
// ranking, NaN scores included, without the generic call.
func sortScored(r []scoredServer) {
	if len(r) > stableBlock {
		slices.SortStableFunc(r, compareScored)
		return
	}
	for i := 1; i < len(r); i++ {
		for j := i; j > 0 && compareScored(r[j], r[j-1]) < 0; j-- {
			r[j], r[j-1] = r[j-1], r[j]
		}
	}
}

// stableBlock is slices.SortStableFunc's block size: it insertion-sorts
// blocks of this many elements before merging them, so an input no longer
// than one block is sorted by the insertion sort alone.
const stableBlock = 20

// compareScored orders by ascending score, then server ID. It makes
// ordered comparisons only: ==/!= on scores is banned in the core, and
// this way NaN scores fall through to the ID tie-break instead of making
// the ordering intransitive.
func compareScored(a, b scoredServer) int {
	switch {
	case a.score < b.score:
		return -1
	case b.score < a.score:
		return 1
	case a.server < b.server:
		return -1
	case b.server < a.server:
		return 1
	}
	return 0
}

// Rank appends the candidate servers to dst by ascending Ψ, breaking ties
// by server ID for determinism, and returns the extended slice. The input
// is not modified. A candidate outside [0, MaxServers) ranks nothing: dst
// comes back unextended, as for an empty candidate set.
func (s *Selector) Rank(dst, candidates []int) []int {
	r, err := s.rankInto(candidates)
	if err != nil {
		return dst
	}
	for _, sc := range r {
		dst = append(dst, int(sc.server))
	}
	return dst
}

// Pick chooses a replica for a request and reserves a send slot. The
// returned delay is zero when the send may go out immediately; otherwise
// the caller must hold the request for the delay (cubic rate shaping), as
// C3 does with its backlog queues. Rate limiting never makes Pick fail:
// when every candidate is rate-limited it picks the one whose limiter
// opens first. It fails with ErrInvalidParam only on an empty candidate
// set or a server ID outside [0, MaxServers).
func (s *Selector) Pick(candidates []int) (int, sim.Time, error) {
	if len(candidates) == 0 {
		return 0, 0, fmt.Errorf("empty candidate set: %w", ErrInvalidParam)
	}
	ranked, err := s.rankInto(candidates)
	if err != nil {
		return 0, 0, err
	}
	s.picks++
	if !s.cfg.RateControl {
		s.rankAt(int(ranked[0].slot)).outstanding++
		return int(ranked[0].server), 0, nil
	}
	best := -1
	var bestDelay sim.Time
	for i, sc := range ranked {
		d := s.sendDelay(int(sc.slot))
		if d == 0 {
			s.reserve(int(sc.slot), false)
			return int(sc.server), 0, nil
		}
		if best == -1 || d < bestDelay {
			best, bestDelay = i, d
		}
	}
	s.delayed++
	s.reserve(int(ranked[best].slot), true)
	return int(ranked[best].server), bestDelay, nil
}

// reserve books a rate-controlled send: into the current interval when it
// goes out now, or into the backlog when the limiter holds it. Held sends
// are accounted in the interval they actually leave, so the limiter's own
// queue never masquerades as server overload.
func (s *Selector) reserve(slot int, held bool) {
	rk, st := s.rankAt(slot), s.rateAt(slot)
	s.roll(rk, st)
	if held {
		st.backlog++
	} else {
		st.sentCur++
	}
	rk.outstanding++
}

// allowance is the integral per-interval send budget.
func (s *Selector) allowance(st *rateState) int {
	a := int(st.rate)
	if a < 1 {
		a = 1
	}
	return a
}

// sendDelay computes how long a new send to the server must wait under the
// current allowance, without reserving anything.
func (s *Selector) sendDelay(slot int) sim.Time {
	rk, st := s.rankAt(slot), s.rateAt(slot)
	s.roll(rk, st)
	a := s.allowance(st)
	if st.backlog == 0 && st.sentCur < a {
		return 0
	}
	// The send joins the backlog and leaves k intervals ahead.
	k := 1 + st.backlog/a
	now := s.clock.Now()
	intervalStart := sim.Time(st.interval) * s.cfg.RateInterval
	d := intervalStart + sim.Time(k)*s.cfg.RateInterval - now
	if d < 0 {
		d = 0
	}
	return d
}

// roll lazily advances the per-server rate-accounting window to the
// current engine time: it drains backlog into the skipped intervals and
// applies the congestion-control rate update once per roll. Only the
// rate-control paths call it.
func (s *Selector) roll(rk *rankState, st *rateState) {
	cur := int64(s.clock.Now() / s.cfg.RateInterval)
	if cur == st.interval {
		return
	}
	gap := int(cur - st.interval)
	a := s.allowance(st)

	// Overload test on the closing interval: the server returned
	// substantially fewer responses than we actually sent. The margin
	// filters Poisson noise (C3 compares smoothed rates for the same
	// reason).
	overloaded := st.sentCur > 0 &&
		float64(st.recvCur)*1.25+2 < float64(st.sentCur) &&
		rk.outstanding > 0
	switch {
	case overloaded:
		// Multiplicative decrease toward the observed receive rate.
		st.wMax = st.rate
		target := float64(st.recvCur)
		if target < 1 {
			target = 1
		}
		st.rate = (1 - s.cfg.CubicBeta) * target
		st.lastDrop = s.clock.Now()
		st.everDropped = true
		s.decreases++
	case st.everDropped:
		// Time-based cubic growth since the last decrease (C3's curve);
		// it proceeds even when the link is idle, like CUBIC.
		st.rate = s.cubicRate(st)
	case st.sentCur >= a:
		// Slow-start doubling, but only when the previous allowance was
		// actually saturated (no ballooning while application-limited).
		st.rate *= 2
	}
	if st.rate > s.cfg.MaxRate {
		st.rate = s.cfg.MaxRate
	}
	if st.rate < 1 {
		st.rate = 1
	}

	// Drain the backlog into the skipped intervals.
	drained := gap * s.allowance(st)
	if drained > st.backlog {
		drained = st.backlog
	}
	st.backlog -= drained
	// Sends already booked for the newly current interval.
	carried := drained - (gap-1)*s.allowance(st)
	if carried < 0 {
		carried = 0
	}
	if carried > s.allowance(st) {
		carried = s.allowance(st)
	}
	st.sentCur = carried
	st.recvCur = 0
	st.interval = cur
}

// cubicRate evaluates the CUBIC window at the current time:
// W(t) = γ·(t − K)³ + Wmax with K = ∛(Wmax·β/γ), t in intervals since the
// last decrease.
func (s *Selector) cubicRate(st *rateState) float64 {
	t := float64(s.clock.Now()-st.lastDrop) / float64(s.cfg.RateInterval)
	k := math.Cbrt(st.wMax * s.cfg.CubicBeta / s.cfg.CubicGamma)
	w := s.cfg.CubicGamma*math.Pow(t-k, 3) + st.wMax
	if w < st.rate {
		return st.rate // the window never shrinks during growth
	}
	return w
}

// OnResponse folds a completed request into the per-server state: the
// observed response latency and the piggybacked server status. A server
// ID outside [0, MaxServers) is ignored.
func (s *Selector) OnResponse(server int, latency sim.Time, status kv.Status) {
	if !validServer(server) {
		return
	}
	slot := s.slot(server)
	rk := s.rankAt(slot)
	if s.cfg.RateControl {
		st := s.rateAt(slot)
		s.roll(rk, st)
		st.recvCur++
	}
	if rk.outstanding > 0 {
		rk.outstanding--
	}
	r, sv, q := float64(latency), status.ServiceTimeNs, float64(status.QueueSize)
	if rk.observed == 0 {
		rk.respTime, rk.svcTime, rk.queueSize = r, sv, q
	} else {
		a := s.cfg.Alpha
		rk.respTime = a*r + (1-a)*rk.respTime
		rk.svcTime = a*sv + (1-a)*rk.svcTime
		rk.queueSize = a*q + (1-a)*rk.queueSize
	}
	if rk.observed < math.MaxUint32 {
		rk.observed++
	}
}

// OnAbandon releases the outstanding slot of a request that will never be
// answered: a canceled duplicate or a request lost to a failed operator.
// A server ID outside [0, MaxServers), or one the selector has never seen,
// is ignored.
func (s *Selector) OnAbandon(server int) {
	if !validServer(server) {
		return
	}
	slot, ok := s.lookup(server)
	if !ok {
		return
	}
	if rk := s.rankAt(slot); rk.outstanding > 0 {
		rk.outstanding--
	}
}

// Name identifies the algorithm: "c3", or "c3-norate" without rate
// control.
func (s *Selector) Name() string {
	if !s.cfg.RateControl {
		return "c3-norate"
	}
	return "c3"
}

// SetConcurrencyWeight retunes w, the compensation multiplier for local
// outstanding requests. C3 sets it to the number of RSNodes sharing the
// servers; NetRS's controller only knows that number once a Replica
// Selection Plan is deployed, so the weight is adjustable after
// construction.
func (s *Selector) SetConcurrencyWeight(w float64) error {
	if w < 0 {
		return fmt.Errorf("concurrency weight %v: %w", w, ErrInvalidParam)
	}
	s.cfg.ConcurrencyWeight = w
	return nil
}

// Outstanding returns the selector's in-flight count for a server: 0 for
// an ID outside [0, MaxServers) or one the selector has never seen.
func (s *Selector) Outstanding(server int) int {
	if !validServer(server) {
		return 0
	}
	slot, ok := s.lookup(server)
	if !ok {
		return 0
	}
	return int(s.rankAt(slot).outstanding)
}

// Rate returns the current per-interval send allowance for a server
// (meaningful only with rate control enabled): Config.InitialRate without
// rate control or for a server the selector has never seen, 0 for an ID
// outside [0, MaxServers).
func (s *Selector) Rate(server int) float64 {
	if !validServer(server) {
		return 0
	}
	slot, ok := s.lookup(server)
	if !ok || !s.cfg.RateControl {
		return s.cfg.InitialRate
	}
	return s.rateAt(slot).rate
}

// Stats reports counters useful for tests and instrumentation.
func (s *Selector) Stats() (picks, delayed, decreases uint64) {
	return s.picks, s.delayed, s.decreases
}
