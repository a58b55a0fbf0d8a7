package placement

import (
	"errors"
	"slices"
	"sort"
	"testing"

	"netrs/internal/sim"
	"netrs/internal/topo"
)

// referenceGreedyPack is greedyPack as it was before the candidate lists
// were sorted once: every round re-filters each operator's eligible
// groups, sorts them with the hop cost recomputed inside the comparator,
// and allocates a fresh take list.
func referenceGreedyPack(p Problem, active []bool, candidates [][]int) ([]int, []float64, []bool, float64, error) {
	assignment := make([]int, len(p.Groups))
	for gi := range assignment {
		assignment[gi] = -1
	}
	remaining := 0
	unassigned := make([]bool, len(p.Groups))
	for gi, a := range active {
		if a {
			unassigned[gi] = true
			remaining++
		}
	}
	load := make([]float64, len(p.Operators))
	open := make([]bool, len(p.Operators))
	hopsLeft := p.ExtraHopBudget
	groupsPerOp := make([][]int, len(p.Operators))
	for gi, cands := range candidates {
		for _, oi := range cands {
			groupsPerOp[oi] = append(groupsPerOp[oi], gi)
		}
	}
	for remaining > 0 {
		bestOp, bestCount, bestTraffic := -1, 0, 0.0
		var bestTake []int
		for oi := range p.Operators {
			slack := p.Operators[oi].MaxTraffic - load[oi]
			if slack <= 0 {
				continue
			}
			cands := make([]int, 0, len(groupsPerOp[oi]))
			for _, gi := range groupsPerOp[oi] {
				if unassigned[gi] {
					cands = append(cands, gi)
				}
			}
			if len(cands) == 0 {
				continue
			}
			sort.Slice(cands, func(a, b int) bool {
				ca := p.ExtraHopCost(p.Groups[cands[a]], p.Operators[oi])
				cb := p.ExtraHopCost(p.Groups[cands[b]], p.Operators[oi])
				switch {
				case ca < cb:
					return true
				case cb < ca:
					return false
				}
				ta, tb := p.Groups[cands[a]].Total(), p.Groups[cands[b]].Total()
				switch {
				case ta > tb:
					return true
				case tb > ta:
					return false
				}
				return cands[a] < cands[b]
			})
			take := make([]int, 0, len(cands))
			slackLeft, budgetLeft, traffic := slack, hopsLeft, 0.0
			for _, gi := range cands {
				tot := p.Groups[gi].Total()
				cost := p.ExtraHopCost(p.Groups[gi], p.Operators[oi])
				if tot <= slackLeft+1e-9 && cost <= budgetLeft+1e-9 {
					take = append(take, gi)
					slackLeft -= tot
					budgetLeft -= cost
					traffic += tot
				}
			}
			if len(take) > bestCount || (len(take) == bestCount && traffic > bestTraffic) {
				bestOp, bestCount, bestTraffic, bestTake = oi, len(take), traffic, take
			}
		}
		if bestOp == -1 || bestCount == 0 {
			return nil, nil, nil, 0, ErrInfeasible
		}
		open[bestOp] = true
		for _, gi := range bestTake {
			assignment[gi] = bestOp
			unassigned[gi] = false
			load[bestOp] += p.Groups[gi].Total()
			hopsLeft -= p.ExtraHopCost(p.Groups[gi], p.Operators[bestOp])
			remaining--
		}
	}
	return assignment, load, open, hopsLeft, nil
}

// checkGreedyMatchesReference runs both packings on p with the given
// active groups and requires bit-identical results: the same assignment,
// the same opened operators, the same float loads and the same budget
// left, or both infeasible.
func checkGreedyMatchesReference(t *testing.T, name string, p Problem, active []bool) {
	t.Helper()
	candidates := candidateSets(p)
	wa, wl, wo, wh, werr := referenceGreedyPack(p, active, candidates)
	ga, gl, gopen, gh, gerr := greedyPack(p, active, candidates)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%s: error %v, reference %v", name, gerr, werr)
	}
	if werr != nil {
		if !errors.Is(gerr, ErrInfeasible) {
			t.Fatalf("%s: error %v, want ErrInfeasible", name, gerr)
		}
		return
	}
	if !slices.Equal(ga, wa) || !slices.Equal(gopen, wo) || !slices.Equal(gl, wl) || gh != wh {
		t.Fatalf("%s: packing differs from the reference:\nassignment %v\nreference  %v\nhops left %v, reference %v",
			name, ga, wa, gh, wh)
	}
}

// TestHeuristicMatchesReference checks the sort-once greedy against the
// per-round re-sorting one on random problems and on the k=16 paper
// problem of BenchmarkHeuristicPlacementK16. Traffic is drawn from a few
// levels so hop costs and totals tie, which exercises the group-index
// tie-break; budgets range from zero (every group stays at its ToR) to
// ample, capacities from roomy to tight, and some groups are inactive.
func TestHeuristicMatchesReference(t *testing.T) {
	rng := sim.NewRNG(29)
	levels := []float64{0, 500, 1000, 2500, 5000, 10000}
	trees := map[int]*topo.Topology{}
	for _, k := range []int{4, 8} {
		ft, err := topo.NewFatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		trees[k] = ft
	}
	for trial := 0; trial < 60; trial++ {
		ft := trees[4]
		if trial%3 == 2 {
			ft = trees[8]
		}
		var groups []Group
		for r := 0; r < ft.Racks(); r++ {
			for g := 0; g <= rng.Intn(2); g++ {
				var tt [3]float64
				for i := range tt {
					tt[i] = levels[rng.Intn(len(levels))]
				}
				groups = append(groups, Group{ID: len(groups), Rack: r, TierTraffic: tt})
			}
		}
		budget := []float64{0, 2e4, 2e5, 1e7}[rng.Intn(4)]
		a := accel()
		a.MaxUtilization = []float64{0.2, 0.5, 1}[rng.Intn(3)]
		p, err := BuildProblem(ft, groups, a, budget)
		if err != nil {
			t.Fatal(err)
		}
		active := make([]bool, len(groups))
		for gi := range active {
			active[gi] = rng.Float64() < 0.9
		}
		checkGreedyMatchesReference(t, "random", p, active)
	}

	ft, err := topo.NewFatTree(16)
	if err != nil {
		t.Fatal(err)
	}
	groups := make([]Group, ft.Racks())
	per := 90000.0 / float64(ft.Racks())
	for r := range groups {
		groups[r] = Group{ID: r, Rack: r, TierTraffic: [3]float64{per * 0.87, per * 0.10, per * 0.03}}
	}
	p, err := BuildProblem(ft, groups, accel(), 18000)
	if err != nil {
		t.Fatal(err)
	}
	active := make([]bool, len(groups))
	for gi := range active {
		active[gi] = true
	}
	checkGreedyMatchesReference(t, "k=16", p, active)
}
