package fabric

import (
	"testing"

	"netrs/internal/cache"
	"netrs/internal/sim"
	"netrs/internal/topo"
)

// fanoutCase is one write's invalidation fan-out: sent from host at the
// instant at, hashed by reqID, dropping key at every ToR in tors.
type fanoutCase struct {
	host  topo.NodeID
	reqID uint64
	key   uint64
	at    sim.Time
	tors  []topo.NodeID
}

// newFanoutNetwork builds a k-ary fat-tree fabric with a hot-key cache on
// every ToR: on a single partition when workers is 0, else over the
// topology's pod partitions with that many workers. run drives it until
// every scheduled event has executed.
func newFanoutNetwork(tb testing.TB, k, workers int) (net *Network, run func()) {
	tb.Helper()
	ft, err := topo.NewFatTree(k)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := NewDefaultConfig()
	factory := func(uint16, *sim.Engine) (Selector, error) { return &spySelector{}, nil }
	parts := ft.PodPartitions()
	if workers == 0 {
		parts = 1
	}
	set, err := sim.NewShardSet(parts, workers, cfg.LinkLatency)
	if err != nil {
		tb.Fatal(err)
	}
	if net, err = NewNetwork(set, ft, cfg, factory); err != nil {
		tb.Fatal(err)
	}
	run = func() {
		if err := set.Run(10*sim.Second, nil); err != nil {
			tb.Fatal(err)
		}
	}
	for _, tor := range ft.ToRs() {
		c, err := cache.New(cache.Config{Budget: 1 << 24, AdmitAfter: 1})
		if err != nil {
			tb.Fatal(err)
		}
		op, _ := net.Operator(tor)
		if err := op.EnableCache(c, CacheModeSelector); err != nil {
			tb.Fatal(err)
		}
	}
	return net, run
}

// checkFanoutMatchesRoutes sends many invalidation fan-outs over a fat-tree
// with fault extras on random links and checks each against the unicast
// routes it replaces: every target's cache drops the key at exactly the
// send instant plus Σ(L + extra) over its RouteInto route (a probe at that
// instant, scheduled before the fan-out and so ahead of it, still finds the
// key; one at the next nanosecond does not), delivered grows by the target
// count, forwards by the number of distinct route prefixes (trie edges),
// and every trie segment ends up back on a free list.
func checkFanoutMatchesRoutes(t *testing.T, k, workers int) {
	net, run := newFanoutNetwork(t, k, workers)
	ft := net.Topology()
	cfg := NewDefaultConfig()
	rng := sim.NewRNG(uint64(100*k + workers))

	for a := range ft.Size() {
		for _, b := range ft.Neighbors(topo.NodeID(a)) {
			if topo.NodeID(a) < b && rng.Intn(4) == 0 {
				extra := sim.Time(1 + rng.Intn(int(40*sim.Microsecond)))
				if err := net.SetLinkExtra(topo.NodeID(a), b, extra); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Every case runs alone: a fan-out with these extras ends well within
	// the gap to the next one.
	const cases = 150
	const gap = 2 * sim.Millisecond
	hosts, tors := ft.Hosts(), ft.ToRs()
	invalidated := make(map[topo.NodeID]uint64) // per ToR, across earlier cases
	segsOf := make([][]*mcastSeg, cases)
	var targets, edges uint64
	for i := range cases {
		c := fanoutCase{
			host:  hosts[rng.Intn(len(hosts))],
			reqID: rng.Uint64(),
			key:   uint64(i + 1),
			at:    sim.Time(i+1) * gap,
		}
		for _, tor := range tors {
			if i%10 == 0 || rng.Intn(2) == 0 {
				c.tors = append(c.tors, tor)
			}
		}
		if len(c.tors) == 0 {
			c.tors = append(c.tors, tors[rng.Intn(len(tors))])
		}
		targets += uint64(len(c.tors))

		type prefix struct {
			parent int
			node   topo.NodeID
		}
		prefixes := make(map[prefix]int)
		for _, tor := range c.tors {
			op, _ := net.Operator(tor)
			if op.Cache().Lookup(c.key) || !op.Cache().Admit(c.key) {
				t.Fatalf("case %d: key %d not admitted at ToR %d", i, c.key, tor)
			}
			route, err := ft.RouteInto(nil, c.host, tor, sim.Mix64(c.reqID))
			if err != nil {
				t.Fatal(err)
			}
			want := c.at
			parent := 0
			for j := 1; j < len(route); j++ {
				want += cfg.LinkLatency + net.LinkExtra(route[j-1], route[j])
				p := prefix{parent, route[j]}
				id, ok := prefixes[p]
				if !ok {
					id = len(prefixes) + 1
					prefixes[p] = id
				}
				parent = id
			}
			tor, before := tor, invalidated[tor]
			invalidated[tor]++
			eng := net.EngineOf(tor)
			probe := func(at sim.Time, want uint64) {
				if err := eng.ScheduleAt(at, func() {
					if got := op.Cache().Stats().Invalidations; got != want {
						t.Errorf("case %d: ToR %d has %d invalidations at %v, want %d", i, tor, got, at, want)
					}
				}); err != nil {
					t.Fatal(err)
				}
			}
			probe(want, before)
			probe(want+1, before+1)
		}
		edges += uint64(len(prefixes))

		if err := net.EngineOf(c.host).ScheduleAt(c.at, func() {
			if err := net.SendInvalidations(c.host, c.reqID, c.key, c.tors); err != nil {
				t.Errorf("case %d: %v", i, err)
			}
			segsOf[i] = append([]*mcastSeg(nil), net.builds[net.PartitionOf(c.host)].segs...)
		}); err != nil {
			t.Fatal(err)
		}
	}
	run()

	forwards, delivered, dropped := net.Stats()
	if delivered != targets || forwards != edges || dropped != 0 {
		t.Errorf("stats (forwards %d, delivered %d, dropped %d), want (%d, %d, 0)",
			forwards, delivered, dropped, edges, targets)
	}
	for tor, want := range invalidated {
		op, _ := net.Operator(tor)
		if st := op.Cache().Stats(); st.Invalidations != want || st.Evictions != 0 {
			t.Errorf("ToR %d: %d invalidations, %d evictions; want %d, 0", tor, st.Invalidations, st.Evictions, want)
		}
	}
	free := make(map[*mcastSeg]bool)
	for _, list := range net.segFree {
		for _, seg := range list {
			free[seg] = true
		}
	}
	seen := make(map[*mcastSeg]bool)
	for i, segs := range segsOf {
		if len(segs) == 0 {
			t.Fatalf("case %d: no segments", i)
		}
		for _, seg := range segs {
			seen[seg] = true
			if !free[seg] || seg.left != 0 {
				t.Errorf("case %d: segment for partition %d not freed (%d nodes left)", i, seg.part, seg.left)
			}
		}
	}
	if len(free) != len(seen) {
		t.Errorf("%d segments on free lists, %d ever used", len(free), len(seen))
	}
}

// TestInvalidationFanoutMatchesRoutes checks the fan-out trie against its
// unicast routes on a single engine.
func TestInvalidationFanoutMatchesRoutes(t *testing.T) {
	for _, k := range []int{4, 6} {
		checkFanoutMatchesRoutes(t, k, 0)
	}
}

// TestShardedInvalidationFanoutMatchesRoutes is the same check on a sharded
// network, where every write's trie splits into per-partition segments and
// its aggregation↔core edges ride the exchange.
func TestShardedInvalidationFanoutMatchesRoutes(t *testing.T) {
	for _, k := range []int{4, 6} {
		for _, workers := range []int{2, 4} {
			checkFanoutMatchesRoutes(t, k, workers)
		}
	}
}

// TestSendInvalidationsValidation rejects a source outside the topology
// and a target without an operator, and sends nothing for no targets.
func TestSendInvalidationsValidation(t *testing.T) {
	net, run := newFanoutNetwork(t, 4, 0)
	ft := net.Topology()
	host := ft.Hosts()[0]
	if err := net.SendInvalidations(-1, 1, 1, ft.ToRs()); err == nil {
		t.Error("source -1 accepted")
	}
	if err := net.SendInvalidations(host, 1, 1, []topo.NodeID{ft.Hosts()[1]}); err == nil {
		t.Error("host target accepted")
	}
	if err := net.SendInvalidations(host, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	run()
	if forwards, delivered, _ := net.Stats(); forwards != 0 || delivered != 0 {
		t.Errorf("rejected or empty fan-outs sent traffic: forwards %d, delivered %d", forwards, delivered)
	}
}

// newFanoutBench is the k=16 fan-out the cache schemes send per write: one
// server host to all 128 ToRs on a single engine. write sends the i-th
// write's invalidations and runs them to completion.
func newFanoutBench(tb testing.TB) (net *Network, write func(i int)) {
	net, run := newFanoutNetwork(tb, 16, 0)
	ft := net.Topology()
	hosts, tors := ft.Hosts(), ft.ToRs()
	write = func(i int) {
		if err := net.SendInvalidations(hosts[(i*37)%len(hosts)], uint64(i), uint64(i), tors); err != nil {
			tb.Fatal(err)
		}
		run()
	}
	for i := range 64 { // warm the scratch, the segment pool and the lanes
		write(i)
	}
	return net, write
}

// TestInvalidationFanoutAllocFree pins the steady-state fan-out at zero
// allocations: the route buffer, the build scratch and the segments are
// all reused.
func TestInvalidationFanoutAllocFree(t *testing.T) {
	_, write := newFanoutBench(t)
	i := 0
	if allocs := testing.AllocsPerRun(200, func() { write(i); i++ }); allocs != 0 {
		t.Fatalf("fan-out allocates %.1f times per write", allocs)
	}
}

// BenchmarkInvalidationFanout times one write's invalidation fan-out to the
// 128 ToRs of a k=16 fat-tree, trie build and every edge event included.
// It reports ns per write; steady state allocates nothing.
func BenchmarkInvalidationFanout(b *testing.B) {
	_, write := newFanoutBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/write")
}
