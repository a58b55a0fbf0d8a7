package selection

import (
	"testing"

	"netrs/internal/kv"
	"netrs/internal/sim"
)

// The property suite runs every registered algorithm through the same
// contract checks: picks stay inside the candidate set, Rank appends a
// permutation after whatever dst holds and leaves its input alone, feedback about never-picked
// replica IDs is harmless, and a fixed RNG makes the whole decision
// sequence reproducible.

func mustSelector(t *testing.T, name string, seed uint64) Selector {
	t.Helper()
	s, err := New(name, sim.NewEngine(), sim.NewRNG(seed))
	if err != nil {
		t.Fatalf("New(%q): %v", name, err)
	}
	return s
}

// scriptedStatus derives a deterministic feedback signal from the picked
// server and the step index, so estimators see varied but reproducible
// latencies, queue depths, and service times.
func scriptedStatus(server, step int) (sim.Time, kv.Status) {
	latency := sim.Time(server+1)*sim.Millisecond + sim.Time(step%7)*100*sim.Microsecond
	return latency, kv.Status{
		QueueSize:     (server + step) % 5,
		ServiceTimeNs: float64((step%3 + 1)) * float64(sim.Millisecond),
	}
}

func candidateSets() [][]int {
	return [][]int{
		{3},
		{4, 7, 9},
		{9, 7, 4},
		{0, 1, 2, 3, 4, 5, 6, 7},
		{12, 2, 31, 5, 17},
	}
}

func TestPropertyPickWithinCandidates(t *testing.T) {
	for _, name := range Algorithms() {
		t.Run(name, func(t *testing.T) {
			s := mustSelector(t, name, 42)
			for _, cands := range candidateSets() {
				members := make(map[int]bool, len(cands))
				for _, c := range cands {
					members[c] = true
				}
				for step := 0; step < 60; step++ {
					srv, delay, err := s.Pick(cands)
					if err != nil {
						t.Fatalf("pick %d from %v: %v", step, cands, err)
					}
					if !members[srv] {
						t.Fatalf("pick %d returned %d outside %v", step, srv, cands)
					}
					if delay < 0 {
						t.Fatalf("pick %d returned negative delay %v", step, delay)
					}
					lat, st := scriptedStatus(srv, step)
					s.OnResponse(srv, lat, st)
				}
			}
			if _, _, err := s.Pick(nil); err == nil {
				t.Fatal("empty candidate set must error")
			}
		})
	}
}

func TestPropertyRankIsPermutation(t *testing.T) {
	for _, name := range Algorithms() {
		t.Run(name, func(t *testing.T) {
			s := mustSelector(t, name, 7)
			// Warm the estimators so rankings are non-trivial.
			for step := 0; step < 40; step++ {
				srv, _, err := s.Pick([]int{0, 1, 2, 3, 4, 5, 6, 7})
				if err != nil {
					t.Fatal(err)
				}
				lat, st := scriptedStatus(srv, step)
				s.OnResponse(srv, lat, st)
			}
			for _, cands := range candidateSets() {
				input := append([]int(nil), cands...)
				ranked := s.Rank([]int{-1}, cands)
				if len(ranked) != 1+len(cands) || ranked[0] != -1 {
					t.Fatalf("rank of %v after [-1] = %v, want the prefix kept and %d entries appended", cands, ranked, len(cands))
				}
				ranked = ranked[1:]
				counts := make(map[int]int, len(cands))
				for _, c := range cands {
					counts[c]++
				}
				for _, r := range ranked {
					counts[r]--
				}
				for id, n := range counts {
					if n != 0 {
						t.Fatalf("rank of %v is not a permutation (server %d off by %d): %v", cands, id, n, ranked)
					}
				}
				for i := range cands {
					if cands[i] != input[i] {
						t.Fatalf("Rank mutated its input: %v became %v", input, cands)
					}
				}
			}
			if got := s.Rank(nil, nil); len(got) != 0 {
				t.Fatalf("rank of nil returned %v", got)
			}
		})
	}
}

func TestPropertyUnseenFeedbackNeverPanics(t *testing.T) {
	for _, name := range Algorithms() {
		t.Run(name, func(t *testing.T) {
			s := mustSelector(t, name, 3)
			// Feedback about replicas this selector never picked — stale
			// responses after an RSP update, or duplicates resolved
			// elsewhere — must be absorbed, not crash.
			for _, id := range []int{12345, 0, 999} {
				s.OnResponse(id, 2*sim.Millisecond, kv.Status{QueueSize: 1, ServiceTimeNs: float64(sim.Millisecond)})
			}
			srv, _, err := s.Pick([]int{5, 6})
			if err != nil || (srv != 5 && srv != 6) {
				t.Fatalf("pick after unseen feedback: server %d, err %v", srv, err)
			}
		})
	}
}

func TestPropertyDeterministicUnderFixedRNG(t *testing.T) {
	for _, name := range Algorithms() {
		t.Run(name, func(t *testing.T) {
			script := func() ([]int, []int) {
				s := mustSelector(t, name, 99)
				cands := []int{2, 5, 8, 11}
				var picks []int
				for step := 0; step < 120; step++ {
					srv, _, err := s.Pick(cands)
					if err != nil {
						t.Fatal(err)
					}
					picks = append(picks, srv)
					if step%3 != 0 { // leave some requests outstanding
						lat, st := scriptedStatus(srv, step)
						s.OnResponse(srv, lat, st)
					}
				}
				return picks, s.Rank(nil, cands)
			}
			picksA, rankA := script()
			picksB, rankB := script()
			for i := range picksA {
				if picksA[i] != picksB[i] {
					t.Fatalf("pick %d differs across identical runs: %d vs %d", i, picksA[i], picksB[i])
				}
			}
			for i := range rankA {
				if rankA[i] != rankB[i] {
					t.Fatalf("final rank differs across identical runs: %v vs %v", rankA, rankB)
				}
			}
		})
	}
}
