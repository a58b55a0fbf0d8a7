package ilp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"netrs/internal/sim"
)

func addVar(t *testing.T, m *Model, name string, obj float64) int {
	t.Helper()
	v, err := m.AddBinary(name, obj)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func mustConstraint(t *testing.T, m *Model, terms []Term, rel Relation, rhs float64) {
	t.Helper()
	if err := m.AddConstraint(terms, rel, rhs); err != nil {
		t.Fatal(err)
	}
}

func TestModelValidation(t *testing.T) {
	m := NewModel()
	if _, err := m.AddVariable("x", 1, -1, 1, false); !errors.Is(err, ErrInvalidParam) {
		t.Error("negative lower bound accepted")
	}
	if _, err := m.AddVariable("x", 1, 2, 1, false); !errors.Is(err, ErrInvalidParam) {
		t.Error("crossed bounds accepted")
	}
	if _, err := m.AddVariable("x", math.NaN(), 0, 1, false); !errors.Is(err, ErrInvalidParam) {
		t.Error("NaN objective accepted")
	}
	v := addVar(t, m, "x", 1)
	if err := m.AddConstraint([]Term{{Var: 99, Coef: 1}}, LE, 1); !errors.Is(err, ErrInvalidParam) {
		t.Error("unknown variable accepted")
	}
	if err := m.AddConstraint([]Term{{Var: v, Coef: math.Inf(1)}}, LE, 1); !errors.Is(err, ErrInvalidParam) {
		t.Error("infinite coefficient accepted")
	}
	if err := m.AddConstraint([]Term{{Var: v, Coef: 1}}, Relation(9), 1); !errors.Is(err, ErrInvalidParam) {
		t.Error("bogus relation accepted")
	}
	if err := m.AddConstraint([]Term{{Var: v, Coef: 1}}, LE, math.NaN()); !errors.Is(err, ErrInvalidParam) {
		t.Error("NaN rhs accepted")
	}
	if _, err := NewModel().Solve(Options{}); !errors.Is(err, ErrInvalidParam) {
		t.Error("empty model solved")
	}
	if m.NumVariables() != 1 || m.NumConstraints() != 0 {
		t.Errorf("counts = %d vars %d rows", m.NumVariables(), m.NumConstraints())
	}
	if m.Name(v) != "x" || m.Name(42) != "x42" {
		t.Error("Name lookup broken")
	}
	for _, r := range []Relation{LE, GE, EQ, Relation(9)} {
		if r.String() == "" {
			t.Error("empty relation string")
		}
	}
	for _, s := range []Status{StatusOptimal, StatusFeasible, StatusInfeasible, StatusUnbounded, Status(9)} {
		if s.String() == "" {
			t.Error("empty status string")
		}
	}
}

func TestPureLP(t *testing.T) {
	// minimize -x - 2y s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0
	// optimum at (2, 2) with objective -6.
	m := NewModel()
	x, err := m.AddVariable("x", -1, 0, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	y, err := m.AddVariable("y", -2, 0, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	mustConstraint(t, m, []Term{{x, 1}, {y, 1}}, LE, 4)
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective+6) > 1e-6 || math.Abs(sol.X[x]-2) > 1e-6 || math.Abs(sol.X[y]-2) > 1e-6 {
		t.Fatalf("solution = %+v", sol)
	}
}

func TestLPWithGEAndEQ(t *testing.T) {
	// minimize x + y s.t. x + y >= 3, x - y = 1 → x = 2, y = 1, obj 3.
	m := NewModel()
	x, _ := m.AddVariable("x", 1, 0, math.Inf(1), false)
	y, _ := m.AddVariable("y", 1, 0, math.Inf(1), false)
	mustConstraint(t, m, []Term{{x, 1}, {y, 1}}, GE, 3)
	mustConstraint(t, m, []Term{{x, 1}, {y, -1}}, EQ, 1)
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.X[x]-2) > 1e-6 || math.Abs(sol.X[y]-1) > 1e-6 {
		t.Fatalf("solution = %v", sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	m := NewModel()
	x := addVar(t, m, "x", 1)
	mustConstraint(t, m, []Term{{x, 1}}, GE, 2) // x ≤ 1 binary
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v", sol.Status)
	}
}

func TestUnboundedLP(t *testing.T) {
	// minimize -x with x unbounded above.
	m := NewModel()
	x, _ := m.AddVariable("x", -1, 0, math.Inf(1), false)
	mustConstraint(t, m, []Term{{x, 1}}, GE, 0)
	sol, err := m.Solve(Options{})
	if !errors.Is(err, ErrNoSolution) || sol.Status != StatusUnbounded {
		t.Fatalf("sol = %+v, err = %v", sol, err)
	}
}

func TestKnapsackILP(t *testing.T) {
	// maximize 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6 (binary)
	// → minimize the negation. Optimum picks b + c = 20? Check: a+c=17,
	// b+c=20 (weight 6 ok), a+b weight 7 no. So best = 20.
	m := NewModel()
	a := addVar(t, m, "a", -10)
	b := addVar(t, m, "b", -13)
	c := addVar(t, m, "c", -7)
	mustConstraint(t, m, []Term{{a, 3}, {b, 4}, {c, 2}}, LE, 6)
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Objective+20) > 1e-6 {
		t.Fatalf("knapsack = %+v", sol)
	}
	if sol.X[a] != 0 || sol.X[b] != 1 || sol.X[c] != 1 {
		t.Fatalf("knapsack picks = %v", sol.X)
	}
}

func TestIntegerRounding(t *testing.T) {
	// LP optimum fractional: minimize -x s.t. 2x <= 3, x binary → x=1? No:
	// 2x<=3 allows x=1 (2<=3). Use 2x <= 1 → LP x=0.5, ILP x=0.
	m := NewModel()
	x := addVar(t, m, "x", -1)
	mustConstraint(t, m, []Term{{x, 2}}, LE, 1)
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[x] != 0 {
		t.Fatalf("x = %v, want 0", sol.X[x])
	}
}

func TestGeneralIntegerVariable(t *testing.T) {
	// minimize -x s.t. 3x <= 10, x integer in [0, 5] → x = 3.
	m := NewModel()
	x, err := m.AddVariable("x", -1, 0, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	mustConstraint(t, m, []Term{{x, 3}}, LE, 10)
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[x] != 3 {
		t.Fatalf("x = %v, want 3", sol.X[x])
	}
}

func TestAssignmentProblem(t *testing.T) {
	// 3x3 assignment with cost matrix; optimal picks the diagonal of the
	// permuted minimum: costs chosen so optimum = 1 + 2 + 3.
	costs := [3][3]float64{
		{1, 5, 9},
		{6, 2, 7},
		{8, 6, 3},
	}
	m := NewModel()
	var vars [3][3]int
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			vars[i][j] = addVar(t, m, "", costs[i][j])
		}
	}
	for i := 0; i < 3; i++ {
		rowTerms := make([]Term, 3)
		colTerms := make([]Term, 3)
		for j := 0; j < 3; j++ {
			rowTerms[j] = Term{vars[i][j], 1}
			colTerms[j] = Term{vars[j][i], 1}
		}
		mustConstraint(t, m, rowTerms, EQ, 1)
		mustConstraint(t, m, colTerms, EQ, 1)
	}
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-6) > 1e-6 {
		t.Fatalf("assignment = %+v", sol)
	}
}

func TestFacilityLocationShape(t *testing.T) {
	// A miniature of the RSNode placement structure: groups must each be
	// assigned to one open facility (D_j - P_ij >= 0), minimize open
	// facilities under capacity 2. 4 groups, 3 facilities → 2 facilities.
	m := NewModel()
	const groups, facs = 4, 3
	var p [groups][facs]int
	var d [facs]int
	for j := 0; j < facs; j++ {
		d[j] = addVar(t, m, "D", 1)
	}
	for i := 0; i < groups; i++ {
		assign := make([]Term, facs)
		for j := 0; j < facs; j++ {
			p[i][j] = addVar(t, m, "P", 0)
			assign[j] = Term{p[i][j], 1}
			mustConstraint(t, m, []Term{{d[j], 1}, {p[i][j], -1}}, GE, 0)
		}
		mustConstraint(t, m, assign, EQ, 1)
	}
	for j := 0; j < facs; j++ {
		cap := make([]Term, groups)
		for i := 0; i < groups; i++ {
			cap[i] = Term{p[i][j], 1}
		}
		mustConstraint(t, m, cap, LE, 2)
	}
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-2) > 1e-6 {
		t.Fatalf("facility location = %+v", sol)
	}
	// Verify assignment feasibility.
	for i := 0; i < groups; i++ {
		sum := 0.0
		for j := 0; j < facs; j++ {
			sum += sol.X[p[i][j]]
			if sol.X[p[i][j]] > sol.X[d[j]]+1e-9 {
				t.Fatal("assignment to closed facility")
			}
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("group %d assigned %v times", i, sum)
		}
	}
}

func TestNodeLimitReturnsIncumbentOrError(t *testing.T) {
	// A model whose root LP is fractional, forcing branching; with
	// MaxNodes = 1 no incumbent can exist.
	m := NewModel()
	x := addVar(t, m, "x", -1)
	y := addVar(t, m, "y", -1)
	mustConstraint(t, m, []Term{{x, 2}, {y, 2}}, LE, 3)
	if _, err := m.Solve(Options{MaxNodes: 1}); !errors.Is(err, ErrNoSolution) {
		t.Fatalf("err = %v, want ErrNoSolution", err)
	}
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Objective+1) > 1e-6 {
		t.Fatalf("full solve = %+v", sol)
	}
}

func TestDuplicateTermsMerged(t *testing.T) {
	m := NewModel()
	x := addVar(t, m, "x", -1)
	// x + x <= 1 → x <= 0.5 → binary x = 0.
	mustConstraint(t, m, []Term{{x, 1}, {x, 1}}, LE, 1)
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[x] != 0 {
		t.Fatalf("x = %v", sol.X[x])
	}
}

// Property: random small binary covering problems — branch and bound must
// match brute-force enumeration.
func TestBranchBoundMatchesBruteForce(t *testing.T) {
	rng := sim.NewRNG(99)
	for trial := 0; trial < 30; trial++ {
		nVars := 2 + rng.Intn(5) // 2..6
		nRows := 1 + rng.Intn(4) // 1..4
		obj := make([]float64, nVars)
		for j := range obj {
			obj[j] = float64(1 + rng.Intn(9))
		}
		type rrow struct {
			coefs []float64
			rhs   float64
		}
		rows := make([]rrow, nRows)
		for i := range rows {
			coefs := make([]float64, nVars)
			for j := range coefs {
				coefs[j] = float64(rng.Intn(4)) // 0..3
			}
			rows[i] = rrow{coefs: coefs, rhs: float64(1 + rng.Intn(5))}
		}

		m := NewModel()
		vars := make([]int, nVars)
		for j := 0; j < nVars; j++ {
			vars[j] = addVar(t, m, "", obj[j])
		}
		for _, r := range rows {
			terms := make([]Term, nVars)
			for j := range terms {
				terms[j] = Term{vars[j], r.coefs[j]}
			}
			// Covering: sum coefs x >= rhs.
			mustConstraint(t, m, terms, GE, r.rhs)
		}
		sol, err := m.Solve(Options{})

		// Brute force.
		best := math.Inf(1)
		for mask := 0; mask < 1<<nVars; mask++ {
			ok := true
			for _, r := range rows {
				sum := 0.0
				for j := 0; j < nVars; j++ {
					if mask>>j&1 == 1 {
						sum += r.coefs[j]
					}
				}
				if sum < r.rhs-1e-9 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			val := 0.0
			for j := 0; j < nVars; j++ {
				if mask>>j&1 == 1 {
					val += obj[j]
				}
			}
			if val < best {
				best = val
			}
		}

		if math.IsInf(best, 1) {
			if err != nil {
				continue // solver may also report via error path
			}
			if sol.Status != StatusInfeasible {
				t.Fatalf("trial %d: brute force infeasible, solver %v", trial, sol.Status)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != StatusOptimal || math.Abs(sol.Objective-best) > 1e-6 {
			t.Fatalf("trial %d: solver %v obj %v, brute force %v", trial, sol.Status, sol.Objective, best)
		}
	}
}

// Property (quick): LP relaxation objective is always a lower bound on the
// ILP objective for feasible covering instances.
func TestRelaxationBoundProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		nVars := 2 + rng.Intn(4)
		m := NewModel()
		vars := make([]int, nVars)
		for j := 0; j < nVars; j++ {
			v, err := m.AddBinary("", float64(1+rng.Intn(5)))
			if err != nil {
				return false
			}
			vars[j] = v
		}
		terms := make([]Term, nVars)
		for j := range terms {
			terms[j] = Term{vars[j], 1}
		}
		need := float64(1 + rng.Intn(nVars))
		if err := m.AddConstraint(terms, GE, need); err != nil {
			return false
		}
		relaxed := solveLP(m, m.lower, m.upper)
		sol, err := m.Solve(Options{})
		if err != nil || relaxed.status != StatusOptimal {
			return false
		}
		return relaxed.obj <= sol.Objective+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFacilityLocation(b *testing.B) {
	build := func() *Model {
		m := NewModel()
		const groups, facs = 12, 6
		d := make([]int, facs)
		for j := range d {
			d[j], _ = m.AddBinary("D", 1)
		}
		p := make([][]int, groups)
		for i := range p {
			p[i] = make([]int, facs)
			assign := make([]Term, facs)
			for j := range p[i] {
				p[i][j], _ = m.AddBinary("P", 0)
				assign[j] = Term{p[i][j], 1}
				_ = m.AddConstraint([]Term{{d[j], 1}, {p[i][j], -1}}, GE, 0)
			}
			_ = m.AddConstraint(assign, EQ, 1)
		}
		for j := 0; j < facs; j++ {
			cap := make([]Term, groups)
			for i := 0; i < groups; i++ {
				cap[i] = Term{p[i][j], 1}
			}
			_ = m.AddConstraint(cap, LE, 3)
		}
		return m
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := build()
		if _, err := m.Solve(Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
