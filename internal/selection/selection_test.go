package selection

import (
	"errors"
	"testing"

	"netrs/internal/c3"
	"netrs/internal/kv"
	"netrs/internal/sim"
)

func TestNewKnowsEveryAlgorithm(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	for _, name := range Algorithms() {
		s, err := New(name, eng, rng)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := New("nope", eng, rng); !errors.Is(err, ErrInvalidParam) {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := New(AlgoRandom, eng, nil); !errors.Is(err, ErrInvalidParam) {
		t.Fatal("random without rng accepted")
	}
	if _, err := New(AlgoTwoChoices, eng, nil); !errors.Is(err, ErrInvalidParam) {
		t.Fatal("p2c without rng accepted")
	}
}

func TestEveryAlgorithmContract(t *testing.T) {
	// Shared contract: picks come from the candidate set, Rank is a
	// permutation, empty candidates error, responses are absorbed.
	eng := sim.NewEngine()
	rng := sim.NewRNG(2)
	candidates := []int{4, 7, 9}
	status := kv.Status{QueueSize: 1, ServiceTimeNs: float64(sim.Millisecond)}
	for _, name := range Algorithms() {
		s, err := New(name, eng, rng)
		if err != nil {
			t.Fatal(err)
		}
		inSet := func(v int) bool { return v == 4 || v == 7 || v == 9 }
		for i := 0; i < 30; i++ {
			srv, delay, err := s.Pick(candidates)
			if err != nil {
				t.Fatalf("%s pick: %v", name, err)
			}
			if !inSet(srv) {
				t.Fatalf("%s picked %d outside candidates", name, srv)
			}
			if delay < 0 {
				t.Fatalf("%s returned negative delay", name)
			}
			s.OnResponse(srv, 2*sim.Millisecond, status)
		}
		ranked := s.Rank(nil, candidates)
		if len(ranked) != 3 {
			t.Fatalf("%s rank length %d", name, len(ranked))
		}
		seen := map[int]bool{}
		for _, v := range ranked {
			if !inSet(v) || seen[v] {
				t.Fatalf("%s rank not a permutation: %v", name, ranked)
			}
			seen[v] = true
		}
		if _, _, err := s.Pick(nil); err == nil {
			t.Fatalf("%s accepted empty candidates", name)
		}
	}
}

func TestRoundRobinCycles(t *testing.T) {
	var r RoundRobin
	want := []int{1, 2, 3, 1, 2, 3}
	for i, w := range want {
		got, _, err := r.Pick([]int{1, 2, 3})
		if err != nil || got != w {
			t.Fatalf("pick %d = %d (%v), want %d", i, got, err, w)
		}
	}
}

func TestLeastOutstandingBalances(t *testing.T) {
	l := NewLeastOutstanding()
	counts := map[int]int{}
	for i := 0; i < 9; i++ {
		srv, _, err := l.Pick([]int{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		counts[srv]++
	}
	// Without responses, outstanding counts force perfect balance.
	for s, c := range counts {
		if c != 3 {
			t.Fatalf("server %d picked %d times, want 3 (counts %v)", s, c, counts)
		}
	}
	l.OnResponse(1, sim.Millisecond, kv.Status{})
	srv, _, _ := l.Pick([]int{1, 2, 3})
	if srv != 1 {
		t.Fatalf("after releasing server 1, picked %d", srv)
	}
}

func TestLeastOutstandingResponseNeverNegative(t *testing.T) {
	l := NewLeastOutstanding()
	l.OnResponse(5, sim.Millisecond, kv.Status{})
	srv, _, err := l.Pick([]int{5, 6})
	if err != nil || srv != 5 {
		t.Fatalf("pick = %d, %v", srv, err)
	}
}

func TestTwoChoicesPrefersShortQueue(t *testing.T) {
	tc := NewTwoChoices(sim.NewRNG(3))
	tc.OnResponse(1, sim.Millisecond, kv.Status{QueueSize: 50})
	tc.OnResponse(2, sim.Millisecond, kv.Status{QueueSize: 0})
	counts := map[int]int{}
	for i := 0; i < 200; i++ {
		srv, _, err := tc.Pick([]int{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		counts[srv]++
		tc.OnResponse(srv, sim.Millisecond, kv.Status{QueueSize: map[int]int{1: 50, 2: 0}[srv]})
	}
	if counts[2] <= counts[1] {
		t.Fatalf("short-queue server picked %d vs %d", counts[2], counts[1])
	}
}

func TestDynamicSnitchLearnsLatency(t *testing.T) {
	d, err := NewDynamicSnitch()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d.OnResponse(1, 10*sim.Millisecond, kv.Status{})
		d.OnResponse(2, 1*sim.Millisecond, kv.Status{})
	}
	srv, _, err := d.Pick([]int{1, 2})
	if err != nil || srv != 2 {
		t.Fatalf("snitch picked %d (%v), want 2", srv, err)
	}
	ranked := d.Rank(nil, []int{1, 2})
	if ranked[0] != 2 || ranked[1] != 1 {
		t.Fatalf("snitch rank = %v", ranked)
	}
}

func TestDynamicSnitchExploresUnknown(t *testing.T) {
	d, err := NewDynamicSnitch()
	if err != nil {
		t.Fatal(err)
	}
	d.OnResponse(1, 10*sim.Millisecond, kv.Status{})
	srv, _, err := d.Pick([]int{1, 3})
	if err != nil || srv != 3 {
		t.Fatalf("snitch picked %d, want unobserved server 3", srv)
	}
}

func TestRandomCoversAllCandidates(t *testing.T) {
	r := Random{rng: sim.NewRNG(4)}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		srv, _, err := r.Pick([]int{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		seen[srv] = true
	}
	if len(seen) != 3 {
		t.Fatalf("random covered %d of 3 candidates", len(seen))
	}
}

// TestC3IsConcreteSelector pins the dynamic type the cluster wiring
// asserts to retune C3's concurrency weight after a plan is deployed.
func TestC3IsConcreteSelector(t *testing.T) {
	eng := sim.NewEngine()
	s, err := New(AlgoC3, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*c3.Selector); !ok {
		t.Fatalf("New(%q) is %T, want *c3.Selector", AlgoC3, s)
	}
}

func TestC3SelectorIntegration(t *testing.T) {
	eng := sim.NewEngine()
	s, err := New(AlgoC3NoRate, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Feed one slow, one fast server; C3 must prefer the fast one.
	for i := 0; i < 10; i++ {
		s.OnResponse(1, 20*sim.Millisecond, kv.Status{QueueSize: 8, ServiceTimeNs: float64(4 * sim.Millisecond)})
		s.OnResponse(2, 2*sim.Millisecond, kv.Status{QueueSize: 1, ServiceTimeNs: float64(sim.Millisecond)})
	}
	srv, delay, err := s.Pick([]int{1, 2})
	if err != nil || srv != 2 || delay != 0 {
		t.Fatalf("c3 picked %d (+%v, %v), want 2", srv, delay, err)
	}
}
