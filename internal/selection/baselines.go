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

// loads is the in-flight pressure the load-aware baselines share: this
// selector's own outstanding sends and the last piggybacked queue length
// per server. Unseen servers read as zero in both maps.
type loads struct {
	outstanding map[int]int
	queue       map[int]float64
}

func newLoads() loads {
	return loads{outstanding: make(map[int]int), queue: make(map[int]float64)}
}

// load is the server's queue estimate plus its outstanding sends.
func (l *loads) load(server int) float64 {
	return l.queue[server] + float64(l.outstanding[server])
}

// release frees one outstanding slot, clamped at zero so feedback about a
// never-picked server is harmless.
func (l *loads) release(server int) {
	if l.outstanding[server] > 0 {
		l.outstanding[server]--
	}
}

// pickFirst returns the first server of a ranking and reserves its slot.
func (l *loads) pickFirst(ranked []int) (int, sim.Time, error) {
	if len(ranked) == 0 {
		return 0, 0, ErrNoCandidates
	}
	l.outstanding[ranked[0]]++
	return ranked[0], 0, nil
}

// rankBy appends candidates to dst ordered by (class, v, server ID), the
// key of each server coming from key.
func rankBy(dst, candidates []int, key func(server int) (class int, v float64)) []int {
	dst = append(dst, candidates...)
	out := dst[len(dst)-len(candidates):]
	sort.SliceStable(out, func(i, j int) bool {
		ci, vi := key(out[i])
		cj, vj := key(out[j])
		switch {
		case ci != cj:
			return ci < cj
		case vi < vj:
			return true
		case vj < vi:
			return false
		}
		return out[i] < out[j]
	})
	return dst
}

// LeastOutstanding picks the replica with the fewest locally outstanding
// requests — the classic least-outstanding-requests policy.
type LeastOutstanding struct {
	loads
}

var _ Selector = (*LeastOutstanding)(nil)

// NewLeastOutstanding returns an initialized least-outstanding selector.
func NewLeastOutstanding() *LeastOutstanding {
	return &LeastOutstanding{loads: newLoads()}
}

// Pick chooses the candidate with the fewest in-flight requests,
// tie-broken by server ID.
func (l *LeastOutstanding) Pick(candidates []int) (int, sim.Time, error) {
	return l.pickFirst(l.Rank(nil, candidates))
}

// Rank appends candidates by ascending outstanding count.
func (l *LeastOutstanding) Rank(dst, candidates []int) []int {
	return rankBy(dst, candidates, func(s int) (int, float64) { return 0, float64(l.outstanding[s]) })
}

// OnResponse releases the in-flight slot.
func (l *LeastOutstanding) OnResponse(server int, _ sim.Time, _ kv.Status) { l.release(server) }

// Name returns "lor".
func (l *LeastOutstanding) Name() string { return AlgoLeastOutstanding }

// TwoChoices implements Mitzenmacher's power of two choices: sample two
// random candidates and send to the one with the shorter piggybacked queue
// estimate (falling back to outstanding counts before feedback arrives).
type TwoChoices struct {
	loads
	rng *sim.RNG
}

var _ Selector = (*TwoChoices)(nil)

// NewTwoChoices returns an initialized two-choices selector.
func NewTwoChoices(rng *sim.RNG) *TwoChoices {
	return &TwoChoices{loads: newLoads(), rng: rng}
}

// Pick samples two candidates, with replacement, and keeps the lighter
// one.
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
	return rankBy(dst, candidates, func(s int) (int, float64) { return 0, t.load(s) })
}

// OnResponse updates the queue estimate and releases the slot.
func (t *TwoChoices) OnResponse(server int, _ sim.Time, status kv.Status) {
	t.release(server)
	t.queue[server] = float64(status.QueueSize)
}

// Name returns "p2c".
func (t *TwoChoices) Name() string { return AlgoTwoChoices }

// DynamicSnitch approximates Cassandra's dynamic snitching: an EWMA of
// observed read latencies per server scaled by the in-flight load (the
// snitch's "pending requests" severity factor), picking the lowest.
type DynamicSnitch struct {
	loads
	alpha   float64
	latency map[int]*stats.EWMA
}

var _ Selector = (*DynamicSnitch)(nil)

// NewDynamicSnitch returns a snitch with the conventional 0.75 smoothing.
func NewDynamicSnitch() (*DynamicSnitch, error) {
	return &DynamicSnitch{loads: newLoads(), alpha: 0.75, latency: make(map[int]*stats.EWMA)}, nil
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
	return d.pickFirst(d.Rank(nil, candidates))
}

// Rank appends candidates by ascending score.
func (d *DynamicSnitch) Rank(dst, candidates []int) []int {
	return rankBy(dst, candidates, func(s int) (int, float64) { return 0, d.score(s) })
}

// OnResponse folds the observed latency into the per-server EWMA and
// releases the in-flight slot.
func (d *DynamicSnitch) OnResponse(server int, latency sim.Time, _ kv.Status) {
	d.release(server)
	e, ok := d.latency[server]
	if !ok {
		e, _ = stats.NewEWMA(d.alpha)
		d.latency[server] = e
	}
	e.Observe(float64(latency))
}

// Name returns "snitch".
func (d *DynamicSnitch) Name() string { return AlgoDynamicSnitch }
