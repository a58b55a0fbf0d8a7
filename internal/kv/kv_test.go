package kv

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"netrs/internal/sim"
)

func TestRingValidation(t *testing.T) {
	cases := []struct{ servers, rf, vnodes int }{
		{0, 1, 1}, {3, 0, 1}, {2, 3, 1}, {3, 1, 0},
		{1 << 17, 1, 1 << 16}, // 2^33 points overflow the uint32 bucket index
	}
	for _, c := range cases {
		if _, err := NewRing(c.servers, c.rf, c.vnodes, 1); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("NewRing(%+v) err = %v", c, err)
		}
	}
}

func TestRingReplicaGroups(t *testing.T) {
	r, err := NewRing(100, 3, 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	if r.Servers() != 100 || r.RF() != 3 {
		t.Fatalf("servers/rf = %d/%d", r.Servers(), r.RF())
	}
	if r.Groups() < 100 {
		t.Fatalf("only %d distinct groups", r.Groups())
	}
	for key := uint64(0); key < 10000; key++ {
		g := r.GroupOfKey(key)
		replicas, err := r.Replicas(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(replicas) != 3 {
			t.Fatalf("group %d has %d replicas", g, len(replicas))
		}
		seen := map[int]bool{}
		for _, s := range replicas {
			if s < 0 || s >= 100 || seen[s] {
				t.Fatalf("group %d replicas invalid: %v", g, replicas)
			}
			seen[s] = true
		}
	}
	if _, err := r.Replicas(-1); err == nil {
		t.Error("negative group accepted")
	}
	if _, err := r.Replicas(r.Groups()); err == nil {
		t.Error("out-of-range group accepted")
	}
}

func TestRingDeterministic(t *testing.T) {
	a, err := NewRing(20, 3, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(20, 3, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 1000; key++ {
		if a.GroupOfKey(key) != b.GroupOfKey(key) {
			t.Fatal("same seed produced different placements")
		}
	}
	c, err := NewRing(20, 3, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for key := uint64(0); key < 1000; key++ {
		ra, rc := a.ReplicasOfKey(key), c.ReplicasOfKey(key)
		if ra[0] != rc[0] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical placements")
	}
}

func TestRingLoadBalance(t *testing.T) {
	r, err := NewRing(10, 3, 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 10)
	const keys = 100000
	for key := uint64(0); key < keys; key++ {
		for _, s := range r.ReplicasOfKey(key) {
			counts[s]++
		}
	}
	want := float64(keys) * 3 / 10
	for s, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.35 {
			t.Fatalf("server %d owns %d of %d replica slots (want ~%.0f)", s, c, keys*3, want)
		}
	}
}

// Property: replica groups always contain exactly RF distinct servers and
// the mapping is stable.
func TestRingProperty(t *testing.T) {
	r, err := NewRing(17, 3, 16, 11)
	if err != nil {
		t.Fatal(err)
	}
	f := func(key uint64) bool {
		g := r.GroupOfKey(key)
		replicas, err := r.Replicas(g)
		if err != nil || len(replicas) != 3 {
			return false
		}
		seen := map[int]bool{}
		for _, s := range replicas {
			if s < 0 || s >= 17 || seen[s] {
				return false
			}
			seen[s] = true
		}
		return r.GroupOfKey(key) == g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func serverConfig() ServerConfig {
	return ServerConfig{
		Parallelism:         4,
		MeanServiceTime:     4 * sim.Millisecond,
		FluctuationInterval: 50 * sim.Millisecond,
		FluctuationRange:    3,
	}
}

func TestServerValidation(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	bad := []ServerConfig{
		{Parallelism: 0, MeanServiceTime: sim.Millisecond},
		{Parallelism: 1, MeanServiceTime: 0},
		{Parallelism: 1, MeanServiceTime: 1, FluctuationInterval: -1},
		{Parallelism: 1, MeanServiceTime: 1, FluctuationInterval: 1, FluctuationRange: 0.5},
	}
	for i, cfg := range bad {
		if _, err := NewServer(0, eng, cfg, rng); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestServerServesFIFOWithParallelism(t *testing.T) {
	eng := sim.NewEngine()
	cfg := ServerConfig{Parallelism: 2, MeanServiceTime: sim.Millisecond}
	s, err := NewServer(1, eng, cfg, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != 1 {
		t.Fatalf("ID() = %d", s.ID())
	}
	var done []int
	// One stored handler; each request's identity rides in Arg.
	record := func(arg any, _ sim.Time) { done = append(done, *arg.(*int)) }
	ids := []int{0, 1, 2, 3, 4, 5}
	for i := range ids {
		s.Submit(Request{Done: record, Arg: &ids[i]})
	}
	if q := s.QueueSize(); q != 6 {
		t.Fatalf("queue size = %d, want 6", q)
	}
	eng.Run()
	if len(done) != 6 {
		t.Fatalf("completed %d, want 6", len(done))
	}
	if s.Served() != 6 {
		t.Fatalf("Served() = %d", s.Served())
	}
	if s.QueueSize() != 0 {
		t.Fatalf("queue size after drain = %d", s.QueueSize())
	}
	if s.MaxQueue() < 4 {
		t.Fatalf("max queue = %d, want ≥ 4", s.MaxQueue())
	}
	if s.BusyTime() <= 0 {
		t.Fatal("busy time not accounted")
	}
}

func TestServerServiceTimesExponential(t *testing.T) {
	eng := sim.NewEngine()
	cfg := ServerConfig{Parallelism: 1, MeanServiceTime: 4 * sim.Millisecond}
	s, err := NewServer(0, eng, cfg, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	var total sim.Time
	const n = 20000
	var submit func(i int)
	submit = func(i int) {
		s.Submit(Request{Done: func(_ any, st sim.Time) {
			total += st
			if i+1 < n {
				submit(i + 1)
			}
		}})
	}
	eng.MustSchedule(0, func() { submit(0) })
	eng.Run()
	mean := float64(total) / n
	if math.Abs(mean-float64(4*sim.Millisecond))/float64(4*sim.Millisecond) > 0.05 {
		t.Fatalf("mean service time %v ns, want ~4ms", mean)
	}
}

func TestServerFluctuationChangesMode(t *testing.T) {
	eng := sim.NewEngine()
	s, err := NewServer(0, eng, serverConfig(), sim.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Start() // idempotent
	modes := map[sim.Time]int{}
	for i := 0; i < 100; i++ {
		eng.RunUntil(eng.Now() + 50*sim.Millisecond)
		modes[s.CurrentMeanServiceTime()]++
	}
	if len(modes) != 2 {
		t.Fatalf("observed %d performance modes, want 2 (bimodal)", len(modes))
	}
	slow := 4 * sim.Millisecond
	fast := slow / 3
	for m := range modes {
		if m != slow && m != fast {
			t.Fatalf("unexpected mode %v", m)
		}
	}
	// The second Start armed no second fluctuation process.
	if eng.Pending() != 1 {
		t.Fatalf("%d events pending, want the one fluctuation tick", eng.Pending())
	}
}

func TestServerStatusPiggyback(t *testing.T) {
	eng := sim.NewEngine()
	cfg := ServerConfig{Parallelism: 1, MeanServiceTime: 2 * sim.Millisecond}
	s, err := NewServer(0, eng, cfg, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	// Prior: before any completion the status advertises the configured
	// mean.
	st := s.Status()
	if st.ServiceTimeNs != float64(2*sim.Millisecond) || st.QueueSize != 0 {
		t.Fatalf("initial status = %+v", st)
	}
	for i := 0; i < 3; i++ {
		s.Submit(Request{})
	}
	if st := s.Status(); st.QueueSize != 3 {
		t.Fatalf("queue size in status = %d, want 3", st.QueueSize)
	}
	eng.Run()
	st = s.Status()
	if st.QueueSize != 0 || st.ServiceTimeNs <= 0 {
		t.Fatalf("final status = %+v", st)
	}
}

func TestServerUtilizationMatchesLoad(t *testing.T) {
	// Open-loop arrivals at 50% utilization: busy time should be about
	// half the simulated span.
	eng := sim.NewEngine()
	cfg := ServerConfig{Parallelism: 2, MeanServiceTime: 2 * sim.Millisecond}
	s, err := NewServer(0, eng, cfg, sim.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	// rate = util * parallelism / mean = 0.5*2/2ms = 1 per 2ms.
	rng := sim.NewRNG(7)
	const n = 5000
	var at sim.Time
	for i := 0; i < n; i++ {
		at += sim.Time(rng.ExpFloat64() * float64(2*sim.Millisecond))
		eng.MustSchedule(at, func() { s.Submit(Request{}) })
	}
	eng.Run()
	span := eng.Now()
	util := float64(s.BusyTime()) / (float64(span) * 2)
	if util < 0.4 || util > 0.6 {
		t.Fatalf("measured utilization %.2f, want ~0.5", util)
	}
}

func TestServerCancellation(t *testing.T) {
	eng := sim.NewEngine()
	cfg := ServerConfig{Parallelism: 1, MeanServiceTime: sim.Millisecond}
	s, err := NewServer(0, eng, cfg, sim.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	var done []int
	submit := func(id int) Ticket {
		return s.Submit(Request{Done: func(any, sim.Time) { done = append(done, id) }})
	}
	t0 := submit(0) // starts immediately: zero ticket
	t1 := submit(1) // queued
	t2 := submit(2) // queued
	if t0.Cancel() {
		t.Fatal("in-service request canceled")
	}
	if !t1.Cancel() {
		t.Fatal("queued request not cancelable")
	}
	if t1.Cancel() {
		t.Fatal("double cancel succeeded")
	}
	if s.QueueSize() != 2 { // executing 0 + queued 2 (1 canceled, excluded)
		t.Fatalf("queue size = %d, want 2", s.QueueSize())
	}
	eng.Run()
	if len(done) != 2 || done[0] != 0 || done[1] != 2 {
		t.Fatalf("completion order = %v, want [0 2]", done)
	}
	if s.Cancelled() != 1 {
		t.Fatalf("cancelled counter = %d", s.Cancelled())
	}
	if s.Served() != 2 {
		t.Fatalf("served = %d", s.Served())
	}
	_ = t2
	if (Ticket{}).Cancel() {
		t.Fatal("zero ticket canceled something")
	}
}

func TestServerCancelHeadOfQueue(t *testing.T) {
	eng := sim.NewEngine()
	cfg := ServerConfig{Parallelism: 1, MeanServiceTime: sim.Millisecond}
	s, err := NewServer(0, eng, cfg, sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	s.Submit(Request{Done: func(any, sim.Time) { served++ }})
	head := s.Submit(Request{Done: func(any, sim.Time) { served++ }})
	tail := s.Submit(Request{Done: func(any, sim.Time) { served++ }})
	if !head.Cancel() {
		t.Fatal("head not cancelable")
	}
	eng.Run()
	if served != 2 {
		t.Fatalf("served %d, want 2 (head skipped)", served)
	}
	_ = tail
}

// TestServerCancelAfterServiceStarts pins that a ticket stops cancelling
// once its request leaves the queue for service, whether a completion or
// Resume dequeued it: the request will still be served and answered, so
// Cancel must report false and count nothing.
func TestServerCancelAfterServiceStarts(t *testing.T) {
	eng := sim.NewEngine()
	cfg := ServerConfig{Parallelism: 1, MeanServiceTime: sim.Millisecond}
	s, err := NewServer(0, eng, cfg, sim.NewRNG(10))
	if err != nil {
		t.Fatal(err)
	}
	var done []int
	submit := func(id int) Ticket {
		return s.Submit(Request{Done: func(any, sim.Time) {
			done = append(done, id)
			eng.Stop()
		}})
	}
	submit(0)
	t1 := submit(1)
	eng.Run() // request 0 completes; its completion starts request 1
	if t1.Cancel() {
		t.Fatal("cancelled a request that a completion had started")
	}
	s.Pause()
	t2 := submit(2)
	eng.Run() // request 1 completes; request 2 waits out the outage
	s.Resume()
	if t2.Cancel() {
		t.Fatal("cancelled a request that Resume had started")
	}
	eng.Run()
	if !slices.Equal(done, []int{0, 1, 2}) || s.Cancelled() != 0 || s.Served() != 3 {
		t.Fatalf("served %v (%d), cancelled %d; want [0 1 2], none cancelled", done, s.Served(), s.Cancelled())
	}
}

func TestServerSlowdownScalesServiceTimes(t *testing.T) {
	measure := func(mult float64) sim.Time {
		eng := sim.NewEngine()
		cfg := ServerConfig{Parallelism: 1, MeanServiceTime: 4 * sim.Millisecond}
		s, err := NewServer(0, eng, cfg, sim.NewRNG(11))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetSlowdown(mult); err != nil {
			t.Fatal(err)
		}
		var total sim.Time
		for i := 0; i < 2000; i++ {
			s.Submit(Request{Done: func(_ any, st sim.Time) { total += st }})
			eng.Run()
		}
		return total
	}
	base := measure(1)
	slowed := measure(4)
	// Identical seed → identical exponential draws, so the slowed total is
	// exactly 4× up to the per-draw integer truncation.
	ratio := float64(slowed) / float64(base)
	if math.Abs(ratio-4) > 0.01 {
		t.Fatalf("slowdown ratio %.4f, want ~4", ratio)
	}
}

func TestServerSlowdownValidation(t *testing.T) {
	eng := sim.NewEngine()
	s, err := NewServer(0, eng, ServerConfig{Parallelism: 1, MeanServiceTime: sim.Millisecond}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetSlowdown(0); !errors.Is(err, ErrInvalidParam) {
		t.Errorf("SetSlowdown(0) err = %v", err)
	}
	if err := s.SetSlowdown(-2); !errors.Is(err, ErrInvalidParam) {
		t.Errorf("SetSlowdown(-2) err = %v", err)
	}
	if s.Slowdown() != 1 {
		t.Errorf("Slowdown after rejected sets = %v, want 1", s.Slowdown())
	}
}

func TestServerPauseResume(t *testing.T) {
	eng := sim.NewEngine()
	cfg := ServerConfig{Parallelism: 2, MeanServiceTime: sim.Millisecond}
	s, err := NewServer(0, eng, cfg, sim.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	done := Request{Done: func(any, sim.Time) { served++ }}

	// Two in service, one queued; pause, then let the engine drain.
	s.Submit(done)
	s.Submit(done)
	s.Submit(done)
	s.Pause()
	s.Pause() // idempotent
	if !s.Paused() {
		t.Fatal("not paused")
	}
	eng.Run()
	if served != 2 {
		t.Fatalf("served %d while paused, want 2 (in-flight only)", served)
	}
	if s.QueueSize() != 1 {
		t.Fatalf("queue size = %d, want the stranded request", s.QueueSize())
	}

	// Submissions during the outage queue instead of starting service.
	s.Submit(done)
	eng.Run()
	if served != 2 {
		t.Fatalf("paused server served a new request (served=%d)", served)
	}

	// Resume drains the queue up to the free slots.
	s.Resume()
	s.Resume() // idempotent
	if s.Paused() {
		t.Fatal("still paused after Resume")
	}
	eng.Run()
	if served != 4 {
		t.Fatalf("served %d after resume, want 4", served)
	}
}

func TestServerResumeSkipsCanceled(t *testing.T) {
	eng := sim.NewEngine()
	cfg := ServerConfig{Parallelism: 1, MeanServiceTime: sim.Millisecond}
	s, err := NewServer(0, eng, cfg, sim.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	s.Pause()
	served := 0
	tk1 := s.Submit(Request{Done: func(any, sim.Time) { served++ }})
	s.Submit(Request{Done: func(any, sim.Time) { served++ }})
	if !tk1.Cancel() {
		t.Fatal("queued request not cancelable during outage")
	}
	s.Resume()
	eng.Run()
	if served != 1 {
		t.Fatalf("served %d, want 1 (canceled entry skipped)", served)
	}
}

func BenchmarkServerThroughput(b *testing.B) {
	eng := sim.NewEngine()
	cfg := ServerConfig{Parallelism: 4, MeanServiceTime: 4 * sim.Millisecond}
	s, err := NewServer(0, eng, cfg, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit(Request{})
		if s.QueueSize() > 64 {
			eng.Run()
		}
	}
	eng.Run()
}

// TestGroupOfKeyMatchesSearch checks the bucket index against a binary
// search over the sorted points, on every point's exact position and its
// neighbours (bucket edges, ties) plus both ends of the hash space (the
// wrap past the last point). The rf = 9 ring walks past eight members.
func TestGroupOfKeyMatchesSearch(t *testing.T) {
	rings := []struct{ servers, rf, vnodes int }{
		{1, 1, 1}, {17, 3, 16}, {100, 3, 64}, {800, 3, 64}, {20, 9, 8},
	}
	for _, c := range rings {
		r, err := NewRing(c.servers, c.rf, c.vnodes, 5)
		if err != nil {
			t.Fatal(err)
		}
		search := func(h uint64) int {
			i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= h })
			if i == len(r.points) {
				i = 0
			}
			return int(r.groupOf[i])
		}
		hashes := []uint64{0, math.MaxUint64}
		for _, p := range r.points {
			hashes = append(hashes, p.pos-1, p.pos, p.pos+1)
		}
		for _, h := range hashes {
			if got, want := r.groupOfHash(h), search(h); got != want {
				t.Fatalf("ring %+v: groupOfHash(%#x) = %d, binary search = %d", c, h, got, want)
			}
		}
	}
}

// referenceRing is NewRing's group enumeration as it was before the ring
// became flat arrays: points sorted with sort.Slice, and a map from each
// point's member list to its group ID, assigned in first-encounter order.
// (The old code keyed rf ≤ 8 by a zero-padded [8]int32 and longer lists
// by a string; both give the same IDs, so one string key stands for
// both.)
func referenceRing(servers, rf, vnodes int, seed uint64) (points []ringPoint, groups [][]int, groupOf []int) {
	for s := 0; s < servers; s++ {
		for v := 0; v < vnodes; v++ {
			points = append(points, ringPoint{pos: pointHash(seed, uint64(s), uint64(v)), server: s})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].pos != points[j].pos {
			return points[i].pos < points[j].pos
		}
		return points[i].server < points[j].server
	})
	ids := make(map[string]int)
	for i := range points {
		var members []int
		for j := 0; len(members) < rf; j++ {
			if s := points[(i+j)%len(points)].server; !slices.Contains(members, s) {
				members = append(members, s)
			}
		}
		key := fmt.Sprint(members)
		id, ok := ids[key]
		if !ok {
			id = len(groups)
			groups = append(groups, members)
			ids[key] = id
		}
		groupOf = append(groupOf, id)
	}
	return points, groups, groupOf
}

// TestRingMatchesReference checks the flat ring against the map-based
// enumeration: the same sorted points, the same group count, the same
// group at every point and from groupOfHash at every point's position,
// and the same replica list for every group ID. The k=32 preset's ring
// (800 servers) is here because no golden run builds it, and the rf = 9
// and rf = 12 rings because the old code enumerated them on a separate
// path.
func TestRingMatchesReference(t *testing.T) {
	rings := []struct{ servers, rf, vnodes int }{
		{1, 1, 1}, {17, 3, 16}, {100, 3, 64}, {800, 3, 64}, {20, 9, 8}, {12, 12, 4},
	}
	for _, c := range rings {
		r, err := NewRing(c.servers, c.rf, c.vnodes, 42)
		if err != nil {
			t.Fatal(err)
		}
		points, groups, groupOf := referenceRing(c.servers, c.rf, c.vnodes, 42)
		if !slices.Equal(r.points, points) {
			t.Fatalf("ring %+v: points differ from the reference", c)
		}
		if r.Groups() != len(groups) {
			t.Fatalf("ring %+v: %d groups, reference %d", c, r.Groups(), len(groups))
		}
		for i, p := range points {
			first := sort.Search(len(points), func(j int) bool { return points[j].pos >= p.pos })
			if got := int(r.groupOf[i]); got != groupOf[i] {
				t.Fatalf("ring %+v: point %d in group %d, reference %d", c, i, got, groupOf[i])
			}
			if got := r.groupOfHash(p.pos); got != groupOf[first] {
				t.Fatalf("ring %+v: groupOfHash(%#x) = %d, reference %d", c, p.pos, got, groupOf[first])
			}
		}
		for g, want := range groups {
			got, err := r.Replicas(g)
			if err != nil || !slices.Equal(got, want) || cap(got) != c.rf {
				t.Fatalf("ring %+v: Replicas(%d) = %v (cap %d, err %v), reference %v", c, g, got, cap(got), err, want)
			}
		}
	}
}

// TestNewRingAllocs pins the ring's flat layout: building one costs the
// same handful of allocations at the paper's size and at the k=32
// preset's, whatever the number of points and groups.
func TestNewRingAllocs(t *testing.T) {
	for _, servers := range []int{100, 800} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := NewRing(servers, 3, 64, 42); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("NewRing(%d, 3, 64) allocates %v times, want at most 8", servers, allocs)
		}
	}
}

// BenchmarkNewRing times building the k=32 preset's ring (800 servers,
// rf 3, 64 virtual nodes); B/op is the ring.
func BenchmarkNewRing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewRing(800, 3, 64, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupOfKey times one key lookup on the paper's ring (100
// servers, rf 3, 64 virtual nodes); a lookup must not allocate.
func BenchmarkGroupOfKey(b *testing.B) {
	r, err := NewRing(100, 3, 64, 42)
	if err != nil {
		b.Fatal(err)
	}
	key := uint64(0)
	if allocs := testing.AllocsPerRun(100, func() { key += uint64(r.GroupOfKey(key)) + 1 }); allocs != 0 {
		b.Fatalf("GroupOfKey allocates %v times", allocs)
	}
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += r.GroupOfKey(uint64(i) * 0x9e3779b97f4a7c15)
	}
	_ = sink
}
