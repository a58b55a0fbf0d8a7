package selection

import (
	"sort"

	"netrs/internal/kv"
	"netrs/internal/sim"
	"netrs/internal/stats"
)

// Random picks a uniformly random replica; the weakest baseline.
type Random struct {
	rng *sim.RNG
}

var _ Selector = (*Random)(nil)

// Pick returns a uniform choice.
func (r *Random) Pick(candidates []int) (int, sim.Time, error) {
	if len(candidates) == 0 {
		return 0, 0, ErrNoCandidates
	}
	return candidates[r.rng.Intn(len(candidates))], 0, nil
}

// Rank appends a random permutation of the candidates.
func (r *Random) Rank(dst, candidates []int) []int {
	dst = append(dst, candidates...)
	out := dst[len(dst)-len(candidates):]
	r.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return dst
}

// OnResponse is a no-op: random selection learns nothing.
func (r *Random) OnResponse(int, sim.Time, kv.Status) {}

// Name returns "random".
func (r *Random) Name() string { return AlgoRandom }

// RoundRobin cycles through replicas in order.
type RoundRobin struct {
	next uint64
}

var _ Selector = (*RoundRobin)(nil)

// Pick returns candidates in rotation.
func (r *RoundRobin) Pick(candidates []int) (int, sim.Time, error) {
	if len(candidates) == 0 {
		return 0, 0, ErrNoCandidates
	}
	srv := candidates[r.next%uint64(len(candidates))]
	r.next++
	return srv, 0, nil
}

// Rank appends the candidates in rotated order.
func (r *RoundRobin) Rank(dst, candidates []int) []int {
	n := uint64(len(candidates))
	for i := uint64(0); i < n; i++ {
		dst = append(dst, candidates[(r.next+i)%n])
	}
	return dst
}

// OnResponse is a no-op.
func (r *RoundRobin) OnResponse(int, sim.Time, kv.Status) {}

// Name returns "roundrobin".
func (r *RoundRobin) Name() string { return AlgoRoundRobin }

// LeastOutstanding picks the replica with the fewest locally outstanding
// requests — the classic least-outstanding-requests policy.
type LeastOutstanding struct {
	outstanding map[int]int
}

var _ Selector = (*LeastOutstanding)(nil)

// NewLeastOutstanding returns an initialized least-outstanding selector.
func NewLeastOutstanding() *LeastOutstanding {
	return &LeastOutstanding{outstanding: make(map[int]int)}
}

// Pick chooses the candidate with the fewest in-flight requests,
// tie-broken by server ID.
func (l *LeastOutstanding) Pick(candidates []int) (int, sim.Time, error) {
	ranked := l.Rank(nil, candidates)
	if len(ranked) == 0 {
		return 0, 0, ErrNoCandidates
	}
	l.outstanding[ranked[0]]++
	return ranked[0], 0, nil
}

// Rank appends candidates by ascending outstanding count.
func (l *LeastOutstanding) Rank(dst, candidates []int) []int {
	dst = append(dst, candidates...)
	out := dst[len(dst)-len(candidates):]
	sort.SliceStable(out, func(i, j int) bool {
		oi, oj := l.outstanding[out[i]], l.outstanding[out[j]]
		if oi != oj {
			return oi < oj
		}
		return out[i] < out[j]
	})
	return dst
}

// OnResponse releases the in-flight slot.
func (l *LeastOutstanding) OnResponse(server int, _ sim.Time, _ kv.Status) {
	if l.outstanding[server] > 0 {
		l.outstanding[server]--
	}
}

// Name returns "lor".
func (l *LeastOutstanding) Name() string { return AlgoLeastOutstanding }

var _ Abandoner = (*LeastOutstanding)(nil)

// OnAbandon releases a never-answered request's slot.
func (l *LeastOutstanding) OnAbandon(server int) {
	if l.outstanding[server] > 0 {
		l.outstanding[server]--
	}
}

// TwoChoices implements Mitzenmacher's power of two choices: sample two
// random candidates and send to the one with the shorter piggybacked queue
// estimate (falling back to outstanding counts before feedback arrives).
type TwoChoices struct {
	rng         *sim.RNG
	queueEst    map[int]float64
	outstanding map[int]int
}

var _ Selector = (*TwoChoices)(nil)

// NewTwoChoices returns an initialized two-choices selector.
func NewTwoChoices(rng *sim.RNG) *TwoChoices {
	return &TwoChoices{
		rng:         rng,
		queueEst:    make(map[int]float64),
		outstanding: make(map[int]int),
	}
}

func (t *TwoChoices) load(server int) float64 {
	return t.queueEst[server] + float64(t.outstanding[server])
}

// Pick samples two distinct candidates and keeps the lighter one.
func (t *TwoChoices) Pick(candidates []int) (int, sim.Time, error) {
	n := len(candidates)
	if n == 0 {
		return 0, 0, ErrNoCandidates
	}
	a := candidates[t.rng.Intn(n)]
	b := candidates[t.rng.Intn(n)]
	best := a
	if t.load(b) < t.load(a) {
		best = b
	}
	t.outstanding[best]++
	return best, 0, nil
}

// Rank appends candidates by the load estimate.
func (t *TwoChoices) Rank(dst, candidates []int) []int {
	dst = append(dst, candidates...)
	out := dst[len(dst)-len(candidates):]
	sort.SliceStable(out, func(i, j int) bool {
		li, lj := t.load(out[i]), t.load(out[j])
		switch {
		case li < lj:
			return true
		case lj < li:
			return false
		}
		return out[i] < out[j]
	})
	return dst
}

// OnResponse updates the queue estimate and releases the slot.
func (t *TwoChoices) OnResponse(server int, _ sim.Time, status kv.Status) {
	if t.outstanding[server] > 0 {
		t.outstanding[server]--
	}
	t.queueEst[server] = float64(status.QueueSize)
}

// Name returns "p2c".
func (t *TwoChoices) Name() string { return AlgoTwoChoices }

var _ Abandoner = (*TwoChoices)(nil)

// OnAbandon releases a never-answered request's slot.
func (t *TwoChoices) OnAbandon(server int) {
	if t.outstanding[server] > 0 {
		t.outstanding[server]--
	}
}

// DynamicSnitch approximates Cassandra's dynamic snitching: an EWMA of
// observed read latencies per server scaled by the in-flight load (the
// snitch's "pending requests" severity factor), picking the lowest.
type DynamicSnitch struct {
	alpha       float64
	latency     map[int]*stats.EWMA
	outstanding map[int]int
}

var _ Selector = (*DynamicSnitch)(nil)

// NewDynamicSnitch returns a snitch with the conventional 0.75 smoothing.
func NewDynamicSnitch() (*DynamicSnitch, error) {
	return &DynamicSnitch{
		alpha:       0.75,
		latency:     make(map[int]*stats.EWMA),
		outstanding: make(map[int]int),
	}, nil
}

func (d *DynamicSnitch) score(server int) float64 {
	base := 0.0 // unobserved servers look attractive, encouraging exploration
	if e, ok := d.latency[server]; ok && e.Observations() > 0 {
		base = e.Value()
	}
	return base * float64(1+d.outstanding[server])
}

// Pick chooses the lowest-scoring server and reserves an in-flight slot.
func (d *DynamicSnitch) Pick(candidates []int) (int, sim.Time, error) {
	ranked := d.Rank(nil, candidates)
	if len(ranked) == 0 {
		return 0, 0, ErrNoCandidates
	}
	d.outstanding[ranked[0]]++
	return ranked[0], 0, nil
}

// Rank appends candidates by ascending latency EWMA.
func (d *DynamicSnitch) Rank(dst, candidates []int) []int {
	dst = append(dst, candidates...)
	out := dst[len(dst)-len(candidates):]
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := d.score(out[i]), d.score(out[j])
		switch {
		case si < sj:
			return true
		case sj < si:
			return false
		}
		return out[i] < out[j]
	})
	return dst
}

// OnResponse folds the observed latency into the per-server EWMA and
// releases the in-flight slot.
func (d *DynamicSnitch) OnResponse(server int, latency sim.Time, _ kv.Status) {
	if d.outstanding[server] > 0 {
		d.outstanding[server]--
	}
	e, ok := d.latency[server]
	if !ok {
		e, _ = stats.NewEWMA(d.alpha)
		d.latency[server] = e
	}
	e.Observe(float64(latency))
}

// Name returns "snitch".
func (d *DynamicSnitch) Name() string { return AlgoDynamicSnitch }

var _ Abandoner = (*DynamicSnitch)(nil)

// OnAbandon releases a never-answered request's slot.
func (d *DynamicSnitch) OnAbandon(server int) {
	if d.outstanding[server] > 0 {
		d.outstanding[server]--
	}
}
