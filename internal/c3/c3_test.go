package c3

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"netrs/internal/kv"
	"netrs/internal/sim"
)

func newSelector(t *testing.T, mod func(*Config)) (*Selector, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := NewDefaultConfig()
	if mod != nil {
		mod(&cfg)
	}
	s, err := NewSelector(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	return s, eng
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	mods := []func(*Config){
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Alpha = 1.5 },
		func(c *Config) { c.ConcurrencyWeight = -1 },
		func(c *Config) { c.RateInterval = 0 },
		func(c *Config) { c.CubicBeta = 0 },
		func(c *Config) { c.CubicBeta = 1 },
		func(c *Config) { c.CubicGamma = 0 },
		func(c *Config) { c.InitialRate = 0 },
		func(c *Config) { c.MaxRate = 1; c.InitialRate = 10 },
		func(c *Config) { c.Servers = -1 },
		func(c *Config) { c.Servers = MaxServers + 1 },
	}
	for i, mod := range mods {
		cfg := NewDefaultConfig()
		mod(&cfg)
		if _, err := NewSelector(cfg, eng); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("mod %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewSelector(NewDefaultConfig(), nil); !errors.Is(err, ErrInvalidParam) {
		t.Error("nil engine accepted")
	}
}

func TestPickEmptyCandidates(t *testing.T) {
	s, _ := newSelector(t, nil)
	if _, _, err := s.Pick(nil); !errors.Is(err, ErrInvalidParam) {
		t.Fatal("empty candidate set accepted")
	}
}

func TestRankPrefersFasterServer(t *testing.T) {
	s, _ := newSelector(t, func(c *Config) { c.RateControl = false })
	fast := kv.Status{QueueSize: 1, ServiceTimeNs: float64(1 * sim.Millisecond)}
	slow := kv.Status{QueueSize: 1, ServiceTimeNs: float64(4 * sim.Millisecond)}
	for i := 0; i < 10; i++ {
		s.OnResponse(1, 2*sim.Millisecond, fast)
		s.OnResponse(2, 8*sim.Millisecond, slow)
	}
	ranked := s.Rank(nil, []int{2, 1})
	if ranked[0] != 1 {
		t.Fatalf("ranked = %v, want fast server first", ranked)
	}
}

func TestRankPenalizesQueueCubically(t *testing.T) {
	s, _ := newSelector(t, func(c *Config) { c.RateControl = false })
	// Same response and service times; queue sizes differ.
	for i := 0; i < 10; i++ {
		s.OnResponse(1, 4*sim.Millisecond, kv.Status{QueueSize: 10, ServiceTimeNs: float64(sim.Millisecond)})
		s.OnResponse(2, 4*sim.Millisecond, kv.Status{QueueSize: 1, ServiceTimeNs: float64(sim.Millisecond)})
	}
	if got := s.Rank(nil, []int{1, 2}); got[0] != 2 {
		t.Fatalf("ranked = %v, want short-queue server first", got)
	}
	// The cubic term must dominate a modest response-time advantage.
	s2, _ := newSelector(t, func(c *Config) { c.RateControl = false })
	for i := 0; i < 10; i++ {
		s2.OnResponse(1, 3*sim.Millisecond, kv.Status{QueueSize: 12, ServiceTimeNs: float64(sim.Millisecond)})
		s2.OnResponse(2, 4*sim.Millisecond, kv.Status{QueueSize: 1, ServiceTimeNs: float64(sim.Millisecond)})
	}
	if got := s2.Rank(nil, []int{1, 2}); got[0] != 2 {
		t.Fatalf("ranked = %v, want cubic queue penalty to dominate", got)
	}
}

func TestOutstandingCompensation(t *testing.T) {
	s, _ := newSelector(t, func(c *Config) {
		c.RateControl = false
		c.ConcurrencyWeight = 10
	})
	status := kv.Status{QueueSize: 1, ServiceTimeNs: float64(sim.Millisecond)}
	for i := 0; i < 5; i++ {
		s.OnResponse(1, 2*sim.Millisecond, status)
		s.OnResponse(2, 2*sim.Millisecond, status)
	}
	// Send repeatedly; without responses the outstanding count must steer
	// picks to the other replica.
	seen := map[int]int{}
	for i := 0; i < 10; i++ {
		srv, delay, err := s.Pick([]int{1, 2})
		if err != nil || delay != 0 {
			t.Fatalf("pick %d: %v %v", i, delay, err)
		}
		seen[srv]++
	}
	if seen[1] == 0 || seen[2] == 0 {
		t.Fatalf("picks = %v, want spread across replicas via outstanding compensation", seen)
	}
	if s.Outstanding(1)+s.Outstanding(2) != 10 {
		t.Fatalf("outstanding sum = %d", s.Outstanding(1)+s.Outstanding(2))
	}
}

func TestOnResponseDecrementsOutstanding(t *testing.T) {
	s, _ := newSelector(t, func(c *Config) { c.RateControl = false })
	srv, _, err := s.Pick([]int{1})
	if err != nil || srv != 1 {
		t.Fatal(err)
	}
	if s.Outstanding(1) != 1 {
		t.Fatalf("outstanding = %d", s.Outstanding(1))
	}
	s.OnResponse(1, sim.Millisecond, kv.Status{QueueSize: 0, ServiceTimeNs: 1})
	if s.Outstanding(1) != 0 {
		t.Fatalf("outstanding after response = %d", s.Outstanding(1))
	}
	// Extra responses never push the counter negative.
	s.OnResponse(1, sim.Millisecond, kv.Status{QueueSize: 0, ServiceTimeNs: 1})
	if s.Outstanding(1) != 0 {
		t.Fatalf("outstanding went negative")
	}
}

func TestOnAbandon(t *testing.T) {
	s, _ := newSelector(t, func(c *Config) { c.RateControl = false })
	if _, _, err := s.Pick([]int{3}); err != nil {
		t.Fatal(err)
	}
	s.OnAbandon(3)
	if s.Outstanding(3) != 0 {
		t.Fatal("abandon did not release outstanding slot")
	}
	s.OnAbandon(3) // idempotent at zero
	if s.Outstanding(3) != 0 {
		t.Fatal("abandon went negative")
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	s, _ := newSelector(t, func(c *Config) { c.RateControl = false })
	// No observations: all scores equal; ranking must be by server ID.
	got := s.Rank(nil, []int{9, 3, 7})
	if got[0] != 3 || got[1] != 7 || got[2] != 9 {
		t.Fatalf("tie-broken rank = %v", got)
	}
}

func TestRateControlDelaysBurst(t *testing.T) {
	s, eng := newSelector(t, func(c *Config) {
		c.InitialRate = 4
		c.MaxRate = 4
	})
	eng.MustSchedule(sim.Millisecond, func() {})
	eng.Run() // advance clock into interval 0
	delayedAt := -1
	for i := 0; i < 10; i++ {
		_, delay, err := s.Pick([]int{1})
		if err != nil {
			t.Fatal(err)
		}
		if delay > 0 && delayedAt == -1 {
			delayedAt = i
		}
	}
	if delayedAt != 4 {
		t.Fatalf("first delayed pick at %d, want 4 (allowance)", delayedAt)
	}
	_, delayed, _ := s.Stats()
	if delayed == 0 {
		t.Fatal("delayed counter not incremented")
	}
}

func TestRateControlDecreasesOnOverload(t *testing.T) {
	s, eng := newSelector(t, func(c *Config) {
		c.InitialRate = 100
		c.MaxRate = 1000
	})
	// Interval 0: send 50, receive 10 -> overload signal at rollover.
	for i := 0; i < 50; i++ {
		if _, _, err := s.Pick([]int{1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		s.OnResponse(1, sim.Millisecond, kv.Status{QueueSize: 5, ServiceTimeNs: 1})
	}
	rateBefore := s.Rate(1)
	eng.MustSchedule(25*sim.Millisecond, func() {})
	eng.Run()
	s.OnResponse(1, sim.Millisecond, kv.Status{QueueSize: 5, ServiceTimeNs: 1}) // triggers roll
	rateAfter := s.Rate(1)
	if rateAfter >= rateBefore {
		t.Fatalf("rate %v -> %v, want multiplicative decrease", rateBefore, rateAfter)
	}
	_, _, decreases := s.Stats()
	if decreases == 0 {
		t.Fatal("decrease counter not incremented")
	}
}

func TestRateControlCubicRegrowth(t *testing.T) {
	s, eng := newSelector(t, func(c *Config) {
		c.InitialRate = 100
		c.MaxRate = 10000
	})
	// Force a decrease.
	for i := 0; i < 50; i++ {
		if _, _, err := s.Pick([]int{1}); err != nil {
			t.Fatal(err)
		}
	}
	eng.MustSchedule(25*sim.Millisecond, func() {})
	eng.Run()
	s.OnResponse(1, sim.Millisecond, kv.Status{QueueSize: 1, ServiceTimeNs: 1})
	dropped := s.Rate(1)
	// Balanced traffic afterwards: the rate must re-grow cubically and
	// eventually exceed the pre-drop level.
	for round := 0; round < 60; round++ {
		eng.MustSchedule(20*sim.Millisecond, func() {})
		eng.Run()
		s.OnResponse(1, sim.Millisecond, kv.Status{QueueSize: 1, ServiceTimeNs: 1})
	}
	if s.Rate(1) <= dropped {
		t.Fatalf("rate stuck at %v after drop %v", s.Rate(1), dropped)
	}
	if s.Rate(1) <= 100 {
		t.Fatalf("cubic growth did not recover past Wmax: %v", s.Rate(1))
	}
}

func TestSlowStartDoublesWhenSaturated(t *testing.T) {
	s, eng := newSelector(t, func(c *Config) {
		c.InitialRate = 2
		c.MaxRate = 64
	})
	// Saturate the allowance every interval with balanced send/receive;
	// rollovers should double the rate until the cap. (The saturation
	// count is read before the interval's roll, so doubling may occur on
	// alternate rounds; 16 rounds are ample for 2 → 64.)
	for round := 0; round < 16; round++ {
		picks := int(s.Rate(1))
		for i := 0; i < picks; i++ {
			if _, _, err := s.Pick([]int{1}); err != nil {
				t.Fatal(err)
			}
			s.OnResponse(1, sim.Millisecond, kv.Status{QueueSize: 0, ServiceTimeNs: 1})
		}
		eng.MustSchedule(20*sim.Millisecond, func() {})
		eng.Run()
	}
	if _, _, err := s.Pick([]int{1}); err != nil { // trigger a roll
		t.Fatal(err)
	}
	if s.Rate(1) != 64 {
		t.Fatalf("rate after saturated slow start = %v, want capped 64", s.Rate(1))
	}
}

func TestSlowStartHoldsWhenApplicationLimited(t *testing.T) {
	s, eng := newSelector(t, func(c *Config) {
		c.InitialRate = 10
		c.MaxRate = 1000
	})
	// One send per 20 ms interval — far below the allowance: the rate
	// must not balloon.
	for round := 0; round < 10; round++ {
		if _, _, err := s.Pick([]int{1}); err != nil {
			t.Fatal(err)
		}
		s.OnResponse(1, sim.Millisecond, kv.Status{QueueSize: 0, ServiceTimeNs: 1})
		eng.MustSchedule(20*sim.Millisecond, func() {})
		eng.Run()
	}
	if _, _, err := s.Pick([]int{1}); err != nil {
		t.Fatal(err)
	}
	if s.Rate(1) != 10 {
		t.Fatalf("application-limited rate = %v, want unchanged 10", s.Rate(1))
	}
}

func TestLimiterBacklogIsNotOverload(t *testing.T) {
	// A burst held by the limiter itself must not trigger a
	// multiplicative decrease: the held sends belong to future
	// intervals, and receives track the actual sends.
	s, eng := newSelector(t, func(c *Config) {
		c.InitialRate = 5
		c.MaxRate = 1000
	})
	// Burst of 20 picks: 5 go now, 15 are booked ahead.
	for i := 0; i < 20; i++ {
		if _, _, err := s.Pick([]int{1}); err != nil {
			t.Fatal(err)
		}
	}
	// The 5 actual sends are all answered promptly.
	for i := 0; i < 5; i++ {
		s.OnResponse(1, sim.Millisecond, kv.Status{QueueSize: 0, ServiceTimeNs: 1})
	}
	eng.MustSchedule(21*sim.Millisecond, func() {})
	eng.Run()
	if _, _, err := s.Pick([]int{1}); err != nil { // trigger a roll
		t.Fatal(err)
	}
	_, _, decreases := s.Stats()
	if decreases != 0 {
		t.Fatalf("limiter backlog caused %d spurious decreases", decreases)
	}
	if s.Rate(1) < 5 {
		t.Fatalf("rate fell to %v on self-inflicted backlog", s.Rate(1))
	}
}

func TestRateLimitedPickChoosesEarliestOpening(t *testing.T) {
	s, eng := newSelector(t, func(c *Config) {
		c.InitialRate = 1
		c.MaxRate = 1
	})
	eng.MustSchedule(sim.Millisecond, func() {})
	eng.Run()
	// Exhaust server 1's allowance, then 2's; a third pick must be
	// delayed but still return a server.
	a, d1, _ := s.Pick([]int{1, 2})
	b, d2, _ := s.Pick([]int{1, 2})
	if d1 != 0 || d2 != 0 || a == b {
		t.Fatalf("first two picks = %d(+%v), %d(+%v)", a, d1, b, d2)
	}
	_, d3, _ := s.Pick([]int{1, 2})
	if d3 <= 0 {
		t.Fatalf("third pick delay = %v, want positive", d3)
	}
	if d3 > 20*sim.Millisecond {
		t.Fatalf("third pick delay = %v, want within one interval", d3)
	}
}

func TestPicksCounter(t *testing.T) {
	s, _ := newSelector(t, func(c *Config) { c.RateControl = false })
	for i := 0; i < 5; i++ {
		if _, _, err := s.Pick([]int{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	picks, _, _ := s.Stats()
	if picks != 5 {
		t.Fatalf("picks = %d", picks)
	}
}

func BenchmarkPickThreeReplicas(b *testing.B) {
	eng := sim.NewEngine()
	cfg := NewDefaultConfig()
	s, err := NewSelector(cfg, eng)
	if err != nil {
		b.Fatal(err)
	}
	status := kv.Status{QueueSize: 2, ServiceTimeNs: float64(sim.Millisecond)}
	candidates := []int{1, 2, 3}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		srv, _, err := s.Pick(candidates)
		if err != nil {
			b.Fatal(err)
		}
		s.OnResponse(srv, 2*sim.Millisecond, status)
	}
}

// TestSortScoredMatchesSortStable checks the written-out insertion sort
// against slices.SortStableFunc with the same comparator on random short
// inputs: scores drawn from a small set, so ties are common, with NaN and
// infinities among them, and repeated server IDs, so fully equal entries
// (told apart by slot) test stability. Lengths run to either side of
// stableBlock: past it, sortScored hands over to SortStableFunc.
func TestSortScoredMatchesSortStable(t *testing.T) {
	scores := []float64{0, 1, 1, 2.5, -3, math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := sim.NewRNG(7)
	for trial := 0; trial < 20000; trial++ {
		n := rng.Intn(stableBlock + 5)
		in := make([]scoredServer, n)
		for i := range in {
			in[i] = scoredServer{score: scores[rng.Intn(len(scores))], server: int32(rng.Intn(4)), slot: int32(i)}
		}
		got := slices.Clone(in)
		sortScored(got)
		want := slices.Clone(in)
		slices.SortStableFunc(want, compareScored)
		for i := range want {
			// Slots are distinct, so they name each entry.
			if got[i].slot != want[i].slot {
				t.Fatalf("trial %d: sortScored(%v) = %v, SortStableFunc gives %v", trial, in, got, want)
			}
		}
	}
}

// TestCubeMatchesPow pins the identity score relies on: q*q*q and
// math.Pow(q, 3) round the same two products, so they agree
// bit for bit wherever the cube is not subnormal. Score only cubes
// q̂ ≥ 1, far inside that range.
func TestCubeMatchesPow(t *testing.T) {
	extremes := []float64{
		0, math.Copysign(0, -1), 1, math.Nextafter(1, 2), 1.5, 3, 1 << 20, 1e100,
		math.Cbrt(math.MaxFloat64), math.Nextafter(math.Cbrt(math.MaxFloat64), math.Inf(1)),
		math.MaxFloat64, math.Inf(1), math.Inf(-1), -2.5, -1e100,
	}
	rng := sim.NewRNG(1)
	qs := extremes
	for i := 0; i < 200000; i++ {
		q := math.Float64frombits(rng.Uint64())
		if math.IsNaN(q) || math.Abs(q) < 1e-102 {
			continue // NaN payloads and subnormal cubes are outside the claim
		}
		qs = append(qs, q, 1+rng.Float64()*100)
	}
	for _, q := range qs {
		if got, want := q*q*q, math.Pow(q, 3); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("q=%v: q*q*q = %v, math.Pow(q, 3) = %v", q, got, want)
		}
	}
}

// TestWarmPathDoesNotAllocate pins the per-request cost of a selector that
// has seen its servers: a Pick plus its OnResponse, and a Rank into a
// buffer with room, allocate nothing.
func TestWarmPathDoesNotAllocate(t *testing.T) {
	s, _ := newSelector(t, nil)
	status := kv.Status{QueueSize: 2, ServiceTimeNs: float64(sim.Millisecond)}
	candidates := []int{40, 7, 300}
	buf := s.Rank(nil, candidates)
	if allocs := testing.AllocsPerRun(100, func() {
		srv, _, err := s.Pick(candidates)
		if err != nil {
			t.Fatal(err)
		}
		s.OnResponse(srv, 2*sim.Millisecond, status)
	}); allocs != 0 {
		t.Errorf("warm Pick+OnResponse allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		buf = s.Rank(buf[:0], candidates)
	}); allocs != 0 {
		t.Errorf("Rank into a warm buffer allocates %v times, want 0", allocs)
	}
}

// TestOutOfRangeServerIDs checks the guard in front of the dense tables:
// an ID outside [0, MaxServers) fails Pick, ranks nothing, and is ignored
// by the feedback paths instead of indexing out of range.
func TestOutOfRangeServerIDs(t *testing.T) {
	s, _ := newSelector(t, nil)
	for _, bad := range []int{-1, -1 << 40, MaxServers, 1 << 40} {
		if _, _, err := s.Pick([]int{1, bad}); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("Pick with server %d: err = %v, want ErrInvalidParam", bad, err)
		}
		if got := s.Rank([]int{5}, []int{bad, 1}); len(got) != 1 || got[0] != 5 {
			t.Errorf("Rank with server %d = %v, want dst unextended", bad, got)
		}
		s.OnResponse(bad, sim.Millisecond, kv.Status{QueueSize: 1, ServiceTimeNs: 1})
		s.OnAbandon(bad)
		if s.Outstanding(bad) != 0 || s.Rate(bad) != 0 {
			t.Errorf("server %d reports state", bad)
		}
	}
	if picks, _, _ := s.Stats(); picks != 0 {
		t.Fatalf("rejected picks counted: %d", picks)
	}
	if srv, _, err := s.Pick([]int{MaxServers - 1}); err != nil || srv != MaxServers-1 {
		t.Fatalf("largest valid ID: server %d, err %v", srv, err)
	}
}

// TestReadsDoNotCreateState checks that Outstanding, Rate and OnAbandon
// only look a server up: on IDs the selector has never seen, below and
// past its slot index, they read 0 outstanding and the initial rate, and
// leave the state count and the heap as they were.
func TestReadsDoNotCreateState(t *testing.T) {
	for _, rateControl := range []bool{true, false} {
		s, _ := newSelector(t, func(c *Config) { c.RateControl = rateControl })
		if _, _, err := s.Pick([]int{3, 9}); err != nil {
			t.Fatal(err)
		}
		states, index := s.states, len(s.slotOf)
		i := 0
		// AllocsPerRun makes one warm-up call, so 999 runs read servers
		// 0, 7, ..., 6993: never 3 or 9, the servers seen.
		allocs := testing.AllocsPerRun(999, func() {
			server := i * 7
			i++
			s.OnAbandon(server)
			if s.Outstanding(server) != 0 || s.Rate(server) != s.cfg.InitialRate {
				t.Fatalf("rate=%v: unseen server %d reads %d outstanding, rate %v",
					rateControl, server, s.Outstanding(server), s.Rate(server))
			}
		})
		if s.states != states || len(s.slotOf) != index {
			t.Errorf("rate=%v: reads took states %d → %d, index %d → %d",
				rateControl, states, s.states, index, len(s.slotOf))
		}
		if allocs != 0 {
			t.Errorf("rate=%v: a read of an unseen server allocates %v times, want 0", rateControl, allocs)
		}
	}
}

// TestSelectorStateBytes pins what a client-sized selector costs on the
// heap: 1000 selectors with an 800-server hint each rank 60 distinct
// servers. Without rate control a selector holds the slot index (two
// bytes per ID, allocated once) and four rank-only blocks of 512 B; with
// it, the index and four 1536 B blocks. The fixed overhead covers the
// Selector itself, its block handles, its ranking scratch and the
// allocator's size-class rounding of the index.
func TestSelectorStateBytes(t *testing.T) {
	const (
		selectors = 1000
		servers   = 800
		seen      = 60
		index     = 2 * servers
		overhead  = 768
	)
	rng := sim.NewRNG(5)
	ids := rng.Perm(servers)[:seen]
	sets := make([][]int, seen/3)
	for i := range sets {
		sets[i] = ids[3*i : 3*i+3]
	}
	eng := sim.NewEngine()
	fleet := make([]*Selector, selectors)
	buf := make([]int, 0, 3)
	for _, tc := range []struct {
		rateControl bool
		block       int
	}{{false, 512}, {true, 1536}} {
		cfg := NewDefaultConfig()
		cfg.RateControl = tc.rateControl
		cfg.Servers = servers
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range fleet {
			s, err := NewSelector(cfg, eng)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range sets {
				buf = s.Rank(buf[:0], c)
			}
			fleet[i] = s
		}
		runtime.ReadMemStats(&after)
		perSelector := float64(after.TotalAlloc-before.TotalAlloc) / selectors
		budget := float64(index + (seen+stateBlock-1)/stateBlock*tc.block + overhead)
		t.Logf("rate=%v: %.0f B per selector (budget %.0f)", tc.rateControl, perSelector, budget)
		if perSelector > budget {
			t.Errorf("rate=%v: a selector costs %.0f B, budget %.0f", tc.rateControl, perSelector, budget)
		}
		for _, s := range fleet {
			if s.states != seen || len(s.slotOf) != servers {
				t.Fatalf("rate=%v: %d states, index of %d", tc.rateControl, s.states, len(s.slotOf))
			}
		}
	}
}

// BenchmarkRankerFleet is the client side of a k=32 NetRS run: 4000
// feedback-fed rankers without rate control over an 800-server bound,
// each ranking 3-replica candidate sets and taking a response from its
// first choice. One op builds and drives the whole fleet, so B/op is the
// fleet's state and allocs/op its heap objects.
func BenchmarkRankerFleet(b *testing.B) {
	const (
		selectors = 4000
		servers   = 800
		perRanker = 16
	)
	eng := sim.NewEngine()
	cfg := NewDefaultConfig()
	cfg.RateControl = false
	cfg.Servers = servers
	rng := sim.NewRNG(3)
	sets := make([][]int, selectors*perRanker)
	for i := range sets {
		a := rng.Intn(servers)
		sets[i] = []int{a, (a + 1) % servers, (a + 2) % servers}
	}
	status := kv.Status{QueueSize: 2, ServiceTimeNs: float64(sim.Millisecond)}
	fleet := make([]*Selector, selectors)
	buf := make([]int, 0, 3)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range fleet {
			s, err := NewSelector(cfg, eng)
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range sets[j*perRanker : (j+1)*perRanker] {
				buf = s.Rank(buf[:0], c)
				s.OnResponse(buf[0], 2*sim.Millisecond, status)
			}
			fleet[j] = s
		}
	}
}
