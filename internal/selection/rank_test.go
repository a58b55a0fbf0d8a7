package selection

import (
	"slices"
	"sort"
	"testing"

	"netrs/internal/sim"
)

// floatThenID is the comparator body the load-aware baselines each wrote
// out before they shared rankBy: ascending key, ties by server ID.
func floatThenID(va, vb float64, a, b int) bool {
	switch {
	case va < vb:
		return true
	case vb < va:
		return false
	}
	return a < b
}

// TestLoadAwareRankMatchesReference drives each load-aware baseline
// through a seeded script of picks and responses and, after every call,
// requires Rank to match the baseline's own comparator, written out here
// as the reference. The baselines that pick the first of their ranking
// must also pick the reference's first server.
func TestLoadAwareRankMatchesReference(t *testing.T) {
	cases := []struct {
		name      string
		firstPick bool
		less      func(s Selector) func(a, b int) bool
	}{
		{AlgoLeastOutstanding, true, func(s Selector) func(a, b int) bool {
			l := s.(*LeastOutstanding)
			return func(a, b int) bool {
				oa, ob := l.outstanding[a], l.outstanding[b]
				if oa != ob {
					return oa < ob
				}
				return a < b
			}
		}},
		{AlgoTwoChoices, false, func(s Selector) func(a, b int) bool {
			p := s.(*TwoChoices)
			return func(a, b int) bool { return floatThenID(p.load(a), p.load(b), a, b) }
		}},
		{AlgoDynamicSnitch, true, func(s Selector) func(a, b int) bool {
			d := s.(*DynamicSnitch)
			return func(a, b int) bool { return floatThenID(d.score(a), d.score(b), a, b) }
		}},
		{AlgoTars, true, func(s Selector) func(a, b int) bool {
			tr := s.(*Tars)
			return func(a, b int) bool {
				d := tr.deadline()
				ta, tb := tr.wait(a) <= d, tr.wait(b) <= d
				if ta != tb {
					return ta
				}
				if ta {
					return floatThenID(tr.load(a), tr.load(b), a, b)
				}
				return floatThenID(tr.wait(a), tr.wait(b), a, b)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mustSelector(t, tc.name, 5)
			less := tc.less(s)
			rng := sim.NewRNG(11)
			reference := func(cands []int) []int {
				out := slices.Clone(cands)
				sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
				return out
			}
			check := func(step int) {
				for _, cands := range append(candidateSets(), rng.Perm(8)[:1+rng.Intn(8)]) {
					if got, want := s.Rank(nil, cands), reference(cands); !slices.Equal(got, want) {
						t.Fatalf("step %d: Rank(%v) = %v, reference %v", step, cands, got, want)
					}
				}
			}
			var inflight []int
			for step := 0; step < 400; step++ {
				if len(inflight) == 0 || rng.Intn(5) < 3 {
					cands := rng.Perm(8)[:1+rng.Intn(5)]
					want := reference(cands)[0]
					srv, _, err := s.Pick(cands)
					if err != nil {
						t.Fatal(err)
					}
					if tc.firstPick && srv != want {
						t.Fatalf("step %d: Pick(%v) = %d, reference first %d", step, cands, srv, want)
					}
					inflight = append(inflight, srv)
				} else {
					i := rng.Intn(len(inflight))
					srv := inflight[i]
					inflight = slices.Delete(inflight, i, i+1)
					lat, st := scriptedStatus(srv, step)
					s.OnResponse(srv, lat, st)
				}
				check(step)
			}
		})
	}
}
