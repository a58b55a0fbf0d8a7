package selection

import (
	"netrs/internal/kv"
	"netrs/internal/sim"
	"netrs/internal/stats"
)

// Tars is a timeliness-aware replica selector in the spirit of "Tars:
// Timeliness-aware Adaptive Replica Selection for Key-Value Stores"
// (Jiang et al., ICDCS 2017; see PAPERS.md), which beats C3 exactly when
// service capacity fluctuates. Instead of chasing the single
// lowest-scoring server — the herd behavior C3's cubic penalty only
// softens — Tars estimates each server's expected wait
//
//	W(s) = latencyEWMA(s) + (queue(s) + outstanding(s)) · serviceEWMA(s)
//
// and compares it against an adaptive deadline derived from the
// cross-server response-time EWMA. Every server expected to answer within
// the deadline is "timely", and timely servers rank by ascending in-flight
// load, spreading requests across the whole timely set; servers expected
// to miss the deadline rank after, by ascending expected wait. The queue
// and service-time terms come from the piggybacked feedback (kv.Status)
// the baselines already consume.
//
// Tars draws no randomness — ties break by server ID — so it is fully
// deterministic and needs no RNG stream.
type Tars struct {
	loads
	alpha   float64
	slack   float64
	latency map[int]*stats.EWMA
	service map[int]*stats.EWMA
	global  *stats.EWMA
}

var _ Selector = (*Tars)(nil)

// NewTars returns a Tars selector with 0.75 smoothing and a deadline of
// 1.5× the global mean response time.
func NewTars() (*Tars, error) {
	global, err := stats.NewEWMA(0.75)
	if err != nil {
		return nil, err
	}
	return &Tars{
		loads:   newLoads(),
		alpha:   0.75,
		slack:   1.5,
		latency: make(map[int]*stats.EWMA),
		service: make(map[int]*stats.EWMA),
		global:  global,
	}, nil
}

// wait estimates the server's expected response time. Unobserved servers
// estimate zero — they look timely and get explored first, like the
// snitch's optimistic default.
func (t *Tars) wait(server int) float64 {
	base := 0.0
	if e, ok := t.latency[server]; ok && e.Observations() > 0 {
		base = e.Value()
	}
	svc := 0.0
	if e, ok := t.service[server]; ok && e.Observations() > 0 {
		svc = e.Value()
	}
	return base + t.load(server)*svc
}

// deadline is the timeliness bar: slack × the global response-time EWMA.
// Before any response arrives the deadline is zero, which still admits
// unobserved (wait-zero) servers, so cold start degenerates to
// least-loaded spreading.
func (t *Tars) deadline() float64 {
	if t.global.Observations() == 0 {
		return 0
	}
	return t.slack * t.global.Value()
}

// Pick chooses the best-ranked server and reserves an in-flight slot.
func (t *Tars) Pick(candidates []int) (int, sim.Time, error) {
	return t.pickFirst(t.Rank(nil, candidates))
}

// Rank appends candidates timely-first: within the timely set by ascending
// load, within the late set by ascending expected wait.
func (t *Tars) Rank(dst, candidates []int) []int {
	d := t.deadline()
	return rankBy(dst, candidates, func(s int) (int, float64) {
		if w := t.wait(s); w > d {
			return 1, w
		}
		return 0, t.load(s)
	})
}

// OnResponse releases the in-flight slot and folds the observation into
// the per-server and global estimators.
func (t *Tars) OnResponse(server int, latency sim.Time, status kv.Status) {
	t.release(server)
	e, ok := t.latency[server]
	if !ok {
		e, _ = stats.NewEWMA(t.alpha)
		t.latency[server] = e
	}
	e.Observe(float64(latency))
	t.global.Observe(float64(latency))
	if status.ServiceTimeNs > 0 {
		s, ok := t.service[server]
		if !ok {
			s, _ = stats.NewEWMA(t.alpha)
			t.service[server] = s
		}
		s.Observe(status.ServiceTimeNs)
	}
	t.queue[server] = float64(status.QueueSize)
}

// Name returns "tars".
func (t *Tars) Name() string { return AlgoTars }
