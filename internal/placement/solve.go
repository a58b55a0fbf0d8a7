package placement

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"netrs/internal/ilp"
)

// Method selects the placement solver.
type Method int

// Solver methods.
const (
	// MethodAuto picks exact for small instances and heuristic beyond
	// the exact-size threshold.
	MethodAuto Method = iota + 1
	// MethodExact builds Eqs. (1)–(7) and solves with branch and bound.
	MethodExact
	// MethodHeuristic uses greedy packing plus local search.
	MethodHeuristic
	// MethodToR marks plans produced by ToRPlan.
	MethodToR
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodExact:
		return "exact-ilp"
	case MethodHeuristic:
		return "heuristic"
	case MethodToR:
		return "tor"
	case MethodWarm:
		return "warm-start"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// IsSolver reports whether Solve accepts m: zero (auto), auto, exact-ilp
// or heuristic. MethodToR and MethodWarm only label plans.
func (m Method) IsSolver() bool { return m >= 0 && m <= MethodHeuristic }

// ParseMethod resolves a method name as String prints it.
func ParseMethod(name string) (Method, error) {
	for m := MethodAuto; m <= MethodWarm; m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown placement method %q: %w", name, ErrInvalidParam)
}

// MarshalText encodes the method by name. The zero value has no name and
// is rejected, so an encoded method always decodes.
func (m Method) MarshalText() ([]byte, error) {
	if m < MethodAuto || m > MethodWarm {
		return nil, fmt.Errorf("placement method %d: %w", int(m), ErrInvalidParam)
	}
	return []byte(m.String()), nil
}

// UnmarshalText decodes a method name as ParseMethod does.
func (m *Method) UnmarshalText(text []byte) error {
	v, err := ParseMethod(string(text))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// Options tunes Solve.
type Options struct {
	// Method picks the solver; zero value means MethodAuto.
	Method Method
	// MaxNodes bounds the branch-and-bound tree (exact solver); 0 uses
	// the ilp package default. Early termination returns a suboptimal
	// incumbent, mirroring the paper's time-limited solving.
	MaxNodes int
	// AllowDRS lets the solver degrade the highest-traffic groups when no
	// fully in-network plan exists (§III-C scenario i).
	AllowDRS bool
	// ExactLimit is the largest number of P variables MethodAuto solves
	// exactly; 0 means 128. The dense-simplex relaxation scales roughly
	// cubically with the variable count, so larger instances go to the
	// heuristic (as the paper's early-termination trade-off anticipates).
	ExactLimit int
}

func (o Options) withDefaults() Options {
	if o.Method == 0 {
		o.Method = MethodAuto
	}
	if o.ExactLimit == 0 {
		o.ExactLimit = 128
	}
	return o
}

// Solve computes a Replica Selection Plan. When the instance is infeasible
// and AllowDRS is set, it repeatedly moves the highest-traffic remaining
// group to Degraded Replica Selection and retries (§III-C: "the NetRS
// controller turns DRS on for groups with the highest traffic"); otherwise
// it returns ErrInfeasible. A method that only labels plans (MethodToR,
// MethodWarm) is refused with ErrInvalidParam.
func Solve(p Problem, opts Options) (Plan, error) {
	if !opts.Method.IsSolver() {
		return Plan{}, fmt.Errorf("placement method %v is not a solver: %w", opts.Method, ErrInvalidParam)
	}
	opts = opts.withDefaults()
	if len(p.Groups) == 0 {
		return Plan{}, fmt.Errorf("no traffic groups: %w", ErrInvalidParam)
	}
	if len(p.Operators) == 0 {
		return Plan{}, fmt.Errorf("no operators: %w", ErrInvalidParam)
	}

	active := make([]bool, len(p.Groups))
	for i := range active {
		active[i] = true
	}
	candidates := candidateSets(p)

	// DRS loop: drop the heaviest group on each failure.
	for {
		plan, err := solveActive(p, active, candidates, opts)
		if err == nil {
			p.finishPlan(&plan)
			if verr := p.Validate(plan); verr != nil {
				return Plan{}, fmt.Errorf("solver produced invalid plan: %w", verr)
			}
			if len(plan.Degraded) > 0 {
				plan.Optimal = false
			}
			return plan, nil
		}
		if !opts.AllowDRS {
			return Plan{}, err
		}
		// Degrade the heaviest still-active group.
		heaviest, best := -1, -1.0
		for gi, a := range active {
			if a && p.Groups[gi].Total() > best {
				heaviest, best = gi, p.Groups[gi].Total()
			}
		}
		if heaviest == -1 {
			return Plan{}, fmt.Errorf("all groups degraded: %w", ErrInfeasible)
		}
		active[heaviest] = false
	}
}

// solveActive solves the placement restricted to active groups; inactive
// groups come back assigned -1.
func solveActive(p Problem, active []bool, candidates [][]int, opts Options) (Plan, error) {
	pVars := 0
	for gi, a := range active {
		if !a {
			continue
		}
		pVars += len(candidates[gi])
		if len(candidates[gi]) == 0 {
			return Plan{}, fmt.Errorf("group %d has no eligible operator: %w", gi, ErrInfeasible)
		}
		// A group is assigned whole (Eq. 5 with binary P), so it must fit
		// some eligible operator on its own.
		fits := false
		for _, oi := range candidates[gi] {
			if p.Groups[gi].Total() <= p.Operators[oi].MaxTraffic+1e-9 {
				fits = true
				break
			}
		}
		if !fits {
			return Plan{}, fmt.Errorf("group %d traffic %.0f exceeds every eligible operator's capacity: %w",
				gi, p.Groups[gi].Total(), ErrInfeasible)
		}
	}
	// Auto solves exactly up to the size threshold.
	if opts.Method == MethodExact || opts.Method == MethodAuto && pVars <= opts.ExactLimit {
		return solveExact(p, active, candidates, opts)
	}
	return solveHeuristic(p, active, candidates)
}

// candidateSets computes, per group, the eligible operator indices (the R
// matrix restricted to R_ij = 1). Solve computes them once and every DRS
// round masks them by its active groups. The lists are carved from one
// backing array of exactly their total: a first pass records R as a
// bitset and counts it, so no list grows by copying.
func candidateSets(p Problem) [][]int {
	nOps := len(p.Operators)
	eligible := make([]uint64, (len(p.Groups)*nOps+63)/64)
	total := 0
	for gi, g := range p.Groups {
		for oi, op := range p.Operators {
			if p.Eligible(g, op) {
				i := gi*nOps + oi
				eligible[i/64] |= 1 << (i % 64)
				total++
			}
		}
	}
	flat := make([]int, 0, total)
	out := make([][]int, len(p.Groups))
	for gi := range out {
		start := len(flat)
		for oi := range nOps {
			if i := gi*nOps + oi; eligible[i/64]&(1<<(i%64)) != 0 {
				flat = append(flat, oi)
			}
		}
		out[gi] = flat[start:len(flat):len(flat)]
	}
	return out
}

// solveExact builds the §III-B ILP and solves it with branch and bound.
func solveExact(p Problem, active []bool, candidates [][]int, opts Options) (Plan, error) {
	m := ilp.NewModel()

	totalTraffic := 0.0
	for gi, g := range p.Groups {
		if active[gi] {
			totalTraffic += g.Total()
		}
	}

	// D_j: operator opened as RSNode (objective: minimize ΣD_j, Eq. 1).
	dVar := make([]int, len(p.Operators))
	for oi, op := range p.Operators {
		v, err := m.AddBinary(fmt.Sprintf("D_%d", op.ID), 1)
		if err != nil {
			return Plan{}, err
		}
		dVar[oi] = v
	}
	// P_ij: group i served by operator j. Only eligible pairs get
	// variables, which realizes Eq. (4) by construction.
	pVar := make(map[[2]int]int)
	for gi := range p.Groups {
		if !active[gi] {
			continue
		}
		for _, oi := range candidates[gi] {
			v, err := m.AddBinary(fmt.Sprintf("P_%d_%d", gi, p.Operators[oi].ID), 0)
			if err != nil {
				return Plan{}, err
			}
			pVar[[2]int{gi, oi}] = v
			// Eq. (3): D_j − P_ij ≥ 0.
			if err := m.AddConstraint([]ilp.Term{{Var: dVar[oi], Coef: 1}, {Var: v, Coef: -1}}, ilp.GE, 0); err != nil {
				return Plan{}, err
			}
		}
	}
	// Eq. (5): each active group assigned exactly once.
	for gi := range p.Groups {
		if !active[gi] {
			continue
		}
		terms := make([]ilp.Term, 0, len(candidates[gi]))
		for _, oi := range candidates[gi] {
			terms = append(terms, ilp.Term{Var: pVar[[2]int{gi, oi}], Coef: 1})
		}
		if err := m.AddConstraint(terms, ilp.EQ, 1); err != nil {
			return Plan{}, err
		}
	}
	// Eq. (6): operator capacity.
	for oi, op := range p.Operators {
		var terms []ilp.Term
		for gi := range p.Groups {
			if !active[gi] {
				continue
			}
			if v, ok := pVar[[2]int{gi, oi}]; ok {
				terms = append(terms, ilp.Term{Var: v, Coef: p.Groups[gi].Total()})
			}
		}
		if len(terms) == 0 {
			continue
		}
		if err := m.AddConstraint(terms, ilp.LE, op.MaxTraffic); err != nil {
			return Plan{}, err
		}
	}
	// Eq. (7): global extra-hop budget. Terms are emitted in the pVar
	// construction order (group, then candidate), never map order: the
	// row's term sequence feeds simplex arithmetic.
	var hopTerms []ilp.Term
	for gi := range p.Groups {
		for _, oi := range candidates[gi] {
			v, ok := pVar[[2]int{gi, oi}]
			if !ok {
				continue
			}
			cost := p.ExtraHopCost(p.Groups[gi], p.Operators[oi])
			if cost > 0 {
				hopTerms = append(hopTerms, ilp.Term{Var: v, Coef: cost})
			}
		}
	}
	if len(hopTerms) > 0 {
		if err := m.AddConstraint(hopTerms, ilp.LE, p.ExtraHopBudget); err != nil {
			return Plan{}, err
		}
	}

	// Strengthening cuts (solver aids; every feasible plan satisfies
	// them). First, a capacity cover: the opened RSNodes must jointly
	// absorb the total traffic, which ties the LP bound to the D
	// variables and guides branching. Second, the greedy heuristic's
	// RSNode count is a valid upper bound on the optimum.
	cover := make([]ilp.Term, len(p.Operators))
	for oi, op := range p.Operators {
		cover[oi] = ilp.Term{Var: dVar[oi], Coef: op.MaxTraffic}
	}
	if err := m.AddConstraint(cover, ilp.GE, totalTraffic); err != nil {
		return Plan{}, err
	}
	if heur, err := solveHeuristic(p, active, candidates); err == nil {
		open := map[int]bool{}
		for _, oi := range heur.Assignment {
			if oi >= 0 {
				open[oi] = true
			}
		}
		bound := make([]ilp.Term, len(p.Operators))
		for oi := range p.Operators {
			bound[oi] = ilp.Term{Var: dVar[oi], Coef: 1}
		}
		if err := m.AddConstraint(bound, ilp.LE, float64(len(open))); err != nil {
			return Plan{}, err
		}
	}

	sol, err := m.Solve(ilp.Options{MaxNodes: opts.MaxNodes})
	if err != nil {
		return Plan{}, fmt.Errorf("ilp: %w: %v", ErrInfeasible, err)
	}
	if sol.Status == ilp.StatusInfeasible {
		return Plan{}, fmt.Errorf("ilp reports infeasible: %w", ErrInfeasible)
	}

	plan := Plan{
		Assignment: make([]int, len(p.Groups)),
		Method:     MethodExact,
		Optimal:    sol.Status == ilp.StatusOptimal,
	}
	for gi := range plan.Assignment {
		plan.Assignment[gi] = -1
	}
	for gi := range p.Groups {
		for _, oi := range candidates[gi] {
			if v, ok := pVar[[2]int{gi, oi}]; ok && sol.X[v] > 0.5 {
				plan.Assignment[gi] = oi
			}
		}
	}
	return plan, nil
}

// heurCand is one eligible group of an operator in solveHeuristic's
// greedy: its index, its extra-hop cost at that operator and its traffic.
type heurCand struct {
	gi        int
	cost, tot float64
}

// solveHeuristic packs groups into as few operators as possible: it
// repeatedly opens the operator able to absorb the most remaining traffic
// within capacity and hop budget (preferring cheaper-hop assignments),
// then runs a local-search pass that tries to close each open RSNode by
// redistributing its groups.
func solveHeuristic(p Problem, active []bool, candidates [][]int) (Plan, error) {
	assignment, load, open, hopsLeft, err := greedyPack(p, active, candidates)
	if err != nil {
		return Plan{}, err
	}

	// Local search: try to close RSNodes with few groups by moving their
	// groups to other open operators with slack.
	openList := make([]int, 0)
	for oi, o := range open {
		if o {
			openList = append(openList, oi)
		}
	}
	sort.Slice(openList, func(a, b int) bool { return load[openList[a]] < load[openList[b]] })
	for _, oi := range openList {
		var members []int
		for gi, a := range assignment {
			if a == oi {
				members = append(members, gi)
			}
		}
		if len(members) == 0 {
			open[oi] = false
			continue
		}
		// Tentatively relocate every member elsewhere.
		moves := make(map[int]int, len(members))
		loadCopy := append([]float64(nil), load...)
		budget := hopsLeft
		feasible := true
		for _, gi := range members {
			placed := false
			cost0 := p.ExtraHopCost(p.Groups[gi], p.Operators[oi])
			for _, target := range candidates[gi] {
				if target == oi || !open[target] {
					continue
				}
				tot := p.Groups[gi].Total()
				cost := p.ExtraHopCost(p.Groups[gi], p.Operators[target])
				if loadCopy[target]+tot <= p.Operators[target].MaxTraffic+1e-9 &&
					cost-cost0 <= budget+1e-9 {
					moves[gi] = target
					loadCopy[target] += tot
					budget -= cost - cost0
					placed = true
					break
				}
			}
			if !placed {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		// Apply in member order (moves is keyed by group): the load updates
		// are float sums, so iteration order must be deterministic.
		for _, gi := range members {
			target, ok := moves[gi]
			if !ok {
				continue
			}
			assignment[gi] = target
			load[target] += p.Groups[gi].Total()
			load[oi] -= p.Groups[gi].Total()
		}
		hopsLeft = budget
		open[oi] = false
	}

	return Plan{Assignment: assignment, Method: MethodHeuristic}, nil
}

// greedyPack is solveHeuristic's packing phase. It returns the group →
// operator assignment (-1 for inactive groups), each operator's load,
// which operators it opened, and the extra-hop budget left.
func greedyPack(p Problem, active []bool, candidates [][]int) (assignment []int, load []float64, open []bool, hopsLeft float64, err error) {
	assignment = make([]int, len(p.Groups))
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
	load = make([]float64, len(p.Operators))
	open = make([]bool, len(p.Operators))
	hopsLeft = p.ExtraHopBudget

	// groupsPerOp[oi] lists the groups eligible for operator oi in the
	// greedy's preference order: ascending hop cost, then descending
	// traffic to fill capacity efficiently, then group index. That key is
	// a total order that never changes between rounds, so each list is
	// sorted once, with its costs precomputed, and a round only filters
	// it by unassigned. The lists are carved from one array holding
	// exactly the active groups' candidates.
	counts := make([]int, len(p.Operators))
	total := 0
	for gi, cands := range candidates {
		if !active[gi] {
			continue
		}
		for _, oi := range cands {
			counts[oi]++
		}
		total += len(cands)
	}
	flat := make([]heurCand, total)
	groupsPerOp := make([][]heurCand, len(p.Operators))
	start := 0
	for oi, n := range counts {
		groupsPerOp[oi] = flat[start : start : start+n]
		start += n
	}
	for gi, cands := range candidates {
		if !active[gi] {
			continue
		}
		for _, oi := range cands {
			groupsPerOp[oi] = append(groupsPerOp[oi], heurCand{
				gi: gi, cost: p.ExtraHopCost(p.Groups[gi], p.Operators[oi]), tot: p.Groups[gi].Total(),
			})
		}
	}
	for _, list := range groupsPerOp {
		slices.SortFunc(list, func(a, b heurCand) int {
			return cmp.Or(cmp.Compare(a.cost, b.cost), cmp.Compare(b.tot, a.tot), cmp.Compare(a.gi, b.gi))
		})
	}

	// take collects one operator's candidate round; it swaps with bestTake
	// when it wins, so the best so far is never overwritten.
	take := make([]int, 0, remaining)
	bestTake := make([]int, 0, remaining)
	for remaining > 0 {
		// Evaluate each closed-or-open operator: how many unassigned
		// groups could it take, greedily in preference order?
		bestOp, bestCount, bestTraffic := -1, 0, 0.0
		bestTake = bestTake[:0]
		for oi := range p.Operators {
			slack := p.Operators[oi].MaxTraffic - load[oi]
			if slack <= 0 {
				continue
			}
			take = take[:0]
			slackLeft, budgetLeft, traffic := slack, hopsLeft, 0.0
			for _, c := range groupsPerOp[oi] {
				if unassigned[c.gi] && c.tot <= slackLeft+1e-9 && c.cost <= budgetLeft+1e-9 {
					take = append(take, c.gi)
					slackLeft -= c.tot
					budgetLeft -= c.cost
					traffic += c.tot
				}
			}
			if len(take) > bestCount || (len(take) == bestCount && traffic > bestTraffic) {
				bestOp, bestCount, bestTraffic = oi, len(take), traffic
				take, bestTake = bestTake, take
			}
		}
		if bestOp == -1 || bestCount == 0 {
			return nil, nil, nil, 0, fmt.Errorf("heuristic cannot place %d groups: %w", remaining, ErrInfeasible)
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
