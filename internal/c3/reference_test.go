package c3

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"netrs/internal/kv"
	"netrs/internal/sim"
	"netrs/internal/stats"
)

// refServer is one server's state in the reference selector: three
// stats.EWMAs, each with its own alpha and observation count, beside the
// rate controller's fields.
type refServer struct {
	outstanding      int
	resp, svc, queue *stats.EWMA
	rate, wMax       float64
	lastDrop         sim.Time
	interval         int64
	sentCur, backlog int
	recvCur          int
	everDropped      bool
}

// refSelector is C3 written the plain way, one record per server in a
// map, for TestSplitStateMatchesEWMAReference to hold the split state
// against.
type refSelector struct {
	cfg                       Config
	clock                     Clock
	servers                   map[int]*refServer
	picks, delayed, decreases uint64
}

func (r *refSelector) state(server int) *refServer {
	st := r.servers[server]
	if st == nil {
		st = &refServer{rate: r.cfg.InitialRate, wMax: r.cfg.InitialRate}
		st.resp, _ = stats.NewEWMA(r.cfg.Alpha)
		st.svc, _ = stats.NewEWMA(r.cfg.Alpha)
		st.queue, _ = stats.NewEWMA(r.cfg.Alpha)
		r.servers[server] = st
	}
	return st
}

func (r *refSelector) score(server int) float64 {
	st := r.state(server)
	qHat := 1 + float64(st.outstanding)*r.cfg.ConcurrencyWeight + st.queue.Value()
	return st.resp.Value() - st.svc.Value() + math.Pow(qHat, 3)*st.svc.Value()
}

func (r *refSelector) rank(candidates []int) []int {
	out := slices.Clone(candidates)
	slices.SortStableFunc(out, func(a, b int) int {
		sa, sb := r.score(a), r.score(b)
		switch {
		case sa < sb:
			return -1
		case sb < sa:
			return 1
		}
		return a - b
	})
	return out
}

func (r *refSelector) pick(candidates []int) (int, sim.Time) {
	ranked := r.rank(candidates)
	r.picks++
	if !r.cfg.RateControl {
		r.reserve(ranked[0], false)
		return ranked[0], 0
	}
	best, bestDelay := -1, sim.Time(0)
	for _, c := range ranked {
		d := r.sendDelay(c)
		if d == 0 {
			r.reserve(c, false)
			return c, 0
		}
		if best == -1 || d < bestDelay {
			best, bestDelay = c, d
		}
	}
	r.delayed++
	r.reserve(best, true)
	return best, bestDelay
}

func (r *refSelector) reserve(server int, held bool) {
	st := r.state(server)
	r.roll(st)
	if held {
		st.backlog++
	} else {
		st.sentCur++
	}
	st.outstanding++
}

func (r *refSelector) allowance(st *refServer) int {
	return max(int(st.rate), 1)
}

func (r *refSelector) sendDelay(server int) sim.Time {
	st := r.state(server)
	r.roll(st)
	a := r.allowance(st)
	if st.backlog == 0 && st.sentCur < a {
		return 0
	}
	k := 1 + st.backlog/a
	d := sim.Time(st.interval)*r.cfg.RateInterval + sim.Time(k)*r.cfg.RateInterval - r.clock.Now()
	return max(d, 0)
}

func (r *refSelector) roll(st *refServer) {
	if !r.cfg.RateControl {
		return
	}
	cur := int64(r.clock.Now() / r.cfg.RateInterval)
	if cur == st.interval {
		return
	}
	gap := int(cur - st.interval)
	a := r.allowance(st)
	overloaded := st.sentCur > 0 &&
		float64(st.recvCur)*1.25+2 < float64(st.sentCur) &&
		st.outstanding > 0
	switch {
	case overloaded:
		st.wMax = st.rate
		st.rate = (1 - r.cfg.CubicBeta) * max(float64(st.recvCur), 1)
		st.lastDrop = r.clock.Now()
		st.everDropped = true
		r.decreases++
	case st.everDropped:
		t := float64(r.clock.Now()-st.lastDrop) / float64(r.cfg.RateInterval)
		k := math.Cbrt(st.wMax * r.cfg.CubicBeta / r.cfg.CubicGamma)
		st.rate = max(r.cfg.CubicGamma*math.Pow(t-k, 3)+st.wMax, st.rate)
	case st.sentCur >= a:
		st.rate *= 2
	}
	st.rate = max(min(st.rate, r.cfg.MaxRate), 1)
	drained := min(gap*r.allowance(st), st.backlog)
	st.backlog -= drained
	st.sentCur = min(max(drained-(gap-1)*r.allowance(st), 0), r.allowance(st))
	st.recvCur = 0
	st.interval = cur
}

func (r *refSelector) onResponse(server int, latency sim.Time, status kv.Status) {
	st := r.state(server)
	r.roll(st)
	if st.outstanding > 0 {
		st.outstanding--
	}
	st.resp.Observe(float64(latency))
	st.svc.Observe(status.ServiceTimeNs)
	st.queue.Observe(float64(status.QueueSize))
	st.recvCur++
}

func (r *refSelector) onAbandon(server int) {
	if st := r.state(server); st.outstanding > 0 {
		st.outstanding--
	}
}

// manualClock is a Clock the test advances by hand.
type manualClock struct{ now sim.Time }

func (c *manualClock) Now() sim.Time { return c.now }

// TestSplitStateMatchesEWMAReference drives the selector and the
// reference through the same random mix of Pick, Rank, OnResponse and
// OnAbandon calls, and after every call requires each server's Ψ to match
// bit for bit, and its outstanding count and rate to be equal. It runs 40
// servers, three state blocks, with rate control on and off (rank-only
// blocks), and with the Servers hint unset, exact, and below the IDs in
// use, so the slot index also grows past the hint. It also pins the record
// and block sizes.
func TestSplitStateMatchesEWMAReference(t *testing.T) {
	if got := unsafe.Sizeof(rankState{}); got != 32 {
		t.Fatalf("rankState is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(rateState{}); got > 64 {
		t.Fatalf("rateState is %d bytes, want at most 64", got)
	}
	if got := unsafe.Sizeof([stateBlock]rankState{}); got != 512 {
		t.Fatalf("a rank-only block is %d bytes, want 512", got)
	}
	if got := unsafe.Sizeof(block{}); got > 1536 {
		t.Fatalf("a block is %d bytes, want at most 1536", got)
	}
	const servers = 40
	for _, rateControl := range []bool{true, false} {
		for _, hint := range []int{0, servers, 10} {
			t.Run(fmt.Sprintf("rate=%v/servers=%d", rateControl, hint), func(t *testing.T) {
				checkAgainstReference(t, servers, rateControl, hint)
			})
		}
	}
}

func checkAgainstReference(t *testing.T, servers int, rateControl bool, hint int) {
	clock := &manualClock{}
	cfg := NewDefaultConfig()
	cfg.RateControl = rateControl
	cfg.InitialRate = 2
	cfg.ConcurrencyWeight = 3
	cfg.Servers = hint
	s, err := NewSelectorWithClock(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refSelector{cfg: cfg, clock: clock, servers: map[int]*refServer{}}
	rng := sim.NewRNG(7)
	// draw skews toward low IDs, so a few servers carry enough picks to
	// reach the rate limiter, while every ID still turns up.
	draw := func() int { return rng.Intn(1 + rng.Intn(servers)) }
	var rankBuf []int
	for op := 0; op < 4000; op++ {
		clock.now += sim.Time(rng.Intn(200)) * sim.Microsecond
		server := draw()
		switch u := rng.Float64(); {
		case u < 0.45:
			candidates := []int{server, (server + 1 + rng.Intn(servers-1)) % servers, draw()}
			got, gotDelay, err := s.Pick(candidates)
			want, wantDelay := ref.pick(candidates)
			if err != nil || got != want || gotDelay != wantDelay {
				t.Fatalf("op %d: Pick(%v) = %d, %v, %v; reference %d, %v",
					op, candidates, got, gotDelay, err, want, wantDelay)
			}
		case u < 0.55:
			candidates := []int{server, (server + 2) % servers, (server + 4) % servers}
			rankBuf = s.Rank(rankBuf[:0], candidates)
			if want := ref.rank(candidates); !slices.Equal(rankBuf, want) {
				t.Fatalf("op %d: Rank(%v) = %v, reference %v", op, candidates, rankBuf, want)
			}
		case u < 0.9:
			latency := sim.Time(1+rng.Intn(8000)) * sim.Microsecond
			status := kv.Status{QueueSize: rng.Intn(12), ServiceTimeNs: float64(rng.Intn(3_000_000))}
			s.OnResponse(server, latency, status)
			ref.onResponse(server, latency, status)
		default:
			s.OnAbandon(server)
			ref.onAbandon(server)
		}
		for srv := 0; srv < servers; srv++ {
			// An unseen server scores as a zero record, as a fresh one does.
			var rk rankState
			if slot, ok := s.lookup(srv); ok {
				rk = *s.rankAt(slot)
			}
			if got, want := s.score(&rk), ref.score(srv); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("op %d: server %d Ψ = %v, reference %v", op, srv, got, want)
			}
			if got, want := s.Outstanding(srv), ref.state(srv).outstanding; got != want {
				t.Fatalf("op %d: server %d outstanding = %d, reference %d", op, srv, got, want)
			}
			if got, want := s.Rate(srv), ref.state(srv).rate; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("op %d: server %d rate = %v, reference %v", op, srv, got, want)
			}
		}
	}
	if s.states != servers || len(s.blocks) != (servers+stateBlock-1)/stateBlock {
		t.Fatalf("%d states in %d blocks, want every one of %d servers seen", s.states, len(s.blocks), servers)
	}
	if want := max(servers, hint); len(s.slotOf) < want {
		t.Fatalf("slot index holds %d IDs, want at least %d", len(s.slotOf), want)
	}
	for _, b := range s.blocks {
		if (b.rate != nil) != rateControl {
			t.Fatalf("rate records allocated = %v with rate control %v", b.rate != nil, rateControl)
		}
	}
	picks, delayed, decreases := s.Stats()
	if picks != ref.picks || delayed != ref.delayed || decreases != ref.decreases {
		t.Fatalf("stats %d/%d/%d, reference %d/%d/%d",
			picks, delayed, decreases, ref.picks, ref.delayed, ref.decreases)
	}
	// The mix must reach the limiter's hold and decrease paths, or the
	// rate comparison proves little.
	if rateControl && (delayed == 0 || decreases == 0) {
		t.Fatalf("rate control exercised too little: %d delayed, %d decreases", delayed, decreases)
	}
}
