package selection

import (
	"testing"

	"netrs/internal/kv"
	"netrs/internal/sim"
)

func newTars(t *testing.T) *Tars {
	t.Helper()
	s, err := NewTars()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTarsColdStartSpreads: with no observations every server is timely
// with zero load, so consecutive picks spread across the candidate set
// instead of herding onto one server.
func TestTarsColdStartSpreads(t *testing.T) {
	s := newTars(t)
	cands := []int{3, 1, 4, 2}
	got := make(map[int]int)
	for i := 0; i < 8; i++ {
		srv, _, err := s.Pick(cands)
		if err != nil {
			t.Fatal(err)
		}
		got[srv]++
	}
	for _, c := range cands {
		if got[c] != 2 {
			t.Fatalf("cold-start picks did not spread evenly: %v", got)
		}
	}
}

// TestTarsDemotesLateServers: a server whose expected wait blows past the
// deadline ranks behind every timely server, even when its piggybacked
// queue is shorter.
func TestTarsDemotesLateServers(t *testing.T) {
	s := newTars(t)
	fast := kv.Status{QueueSize: 0, ServiceTimeNs: float64(2 * sim.Millisecond)}
	// One slow observation, then many fast ones so the global EWMA — and
	// with it the deadline — settles near the fast server's latency.
	s.OnResponse(2, 60*sim.Millisecond, kv.Status{QueueSize: 0, ServiceTimeNs: float64(60 * sim.Millisecond)})
	for i := 0; i < 20; i++ {
		s.OnResponse(1, 2*sim.Millisecond, fast)
	}
	ranked := s.Rank(nil, []int{2, 1})
	if ranked[0] != 1 {
		t.Fatalf("late server ranked first: %v", ranked)
	}
	if w := s.wait(2); w <= s.deadline() {
		t.Fatalf("slow server unexpectedly timely: wait %v, deadline %v", w, s.deadline())
	}
	if w := s.wait(1); w > s.deadline() {
		t.Fatalf("fast server unexpectedly late: wait %v, deadline %v", w, s.deadline())
	}
}

// TestTarsTimelySetRanksByLoad: among timely servers the tiebreak is
// in-flight load, not raw latency — that is the anti-herding property.
func TestTarsTimelySetRanksByLoad(t *testing.T) {
	s := newTars(t)
	// Both servers similar and timely; server 1 marginally faster.
	for i := 0; i < 10; i++ {
		s.OnResponse(1, 2*sim.Millisecond, kv.Status{QueueSize: 0, ServiceTimeNs: float64(sim.Millisecond)})
		s.OnResponse(2, 2200*sim.Microsecond, kv.Status{QueueSize: 0, ServiceTimeNs: float64(sim.Millisecond)})
	}
	// Load server 1 with outstanding sends; picks must shift to server 2.
	first, _, _ := s.Pick([]int{1, 2})
	second, _, _ := s.Pick([]int{1, 2})
	if first == second {
		t.Fatalf("both picks herded onto server %d", first)
	}
}
