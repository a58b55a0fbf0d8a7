package placement

import (
	"errors"
	"math"
	"testing"

	"netrs/internal/sim"
	"netrs/internal/topo"
)

func accel() AccelParams {
	// The paper's accelerators: 1 core, 5 µs selection, U = 50% →
	// Tmax = 100000 req/s.
	return AccelParams{Cores: 1, SelectionTime: 5 * sim.Microsecond, MaxUtilization: 0.5}
}

func TestAccelMaxTraffic(t *testing.T) {
	tmax, err := accel().MaxTraffic()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tmax-100000) > 1e-6 {
		t.Fatalf("Tmax = %v, want 100000 req/s", tmax)
	}
	bad := []AccelParams{
		{Cores: 0, SelectionTime: 1, MaxUtilization: 0.5},
		{Cores: 1, SelectionTime: 0, MaxUtilization: 0.5},
		{Cores: 1, SelectionTime: 1, MaxUtilization: 0},
		{Cores: 1, SelectionTime: 1, MaxUtilization: 1.5},
	}
	for _, a := range bad {
		if _, err := a.MaxTraffic(); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("params %+v accepted", a)
		}
	}
}

// rackGroups builds one rack-level group per rack with the given per-tier
// rates.
func rackGroups(t *testing.T, ft *topo.Topology, tier0, tier1, tier2 float64) []Group {
	t.Helper()
	groups := make([]Group, ft.Racks())
	for r := 0; r < ft.Racks(); r++ {
		hosts, err := ft.HostsInRack(r)
		if err != nil {
			t.Fatal(err)
		}
		groups[r] = Group{
			ID:          r,
			Rack:        r,
			Hosts:       hosts,
			TierTraffic: [3]float64{tier0, tier1, tier2},
		}
	}
	return groups
}

func buildProblem(t *testing.T, ft *topo.Topology, groups []Group, budget float64) Problem {
	t.Helper()
	p, err := BuildProblem(ft, groups, accel(), budget)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildProblemValidation(t *testing.T) {
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildProblem(nil, nil, accel(), 0); !errors.Is(err, ErrInvalidParam) {
		t.Error("nil topology accepted")
	}
	if _, err := BuildProblem(ft, nil, accel(), -1); !errors.Is(err, ErrInvalidParam) {
		t.Error("negative budget accepted")
	}
	if _, err := BuildProblem(ft, []Group{{Rack: 99}}, accel(), 0); !errors.Is(err, ErrInvalidParam) {
		t.Error("bogus rack accepted")
	}
	if _, err := BuildProblem(ft, []Group{{Rack: 0, TierTraffic: [3]float64{-1, 0, 0}}}, accel(), 0); !errors.Is(err, ErrInvalidParam) {
		t.Error("negative traffic accepted")
	}
	p := buildProblem(t, ft, rackGroups(t, ft, 1, 1, 1), 100)
	// One operator per switch: 4 cores + 8 aggs + 8 tors for k=4.
	if len(p.Operators) != 20 {
		t.Fatalf("operators = %d, want 20", len(p.Operators))
	}
	for i, op := range p.Operators {
		if op.ID != i+1 {
			t.Fatalf("operator %d has ID %d; IDs must be 1-based positive", i, op.ID)
		}
	}
}

func TestEligibleMatchesPaperRules(t *testing.T) {
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	p := buildProblem(t, ft, rackGroups(t, ft, 1, 1, 1), 100)
	g := p.Groups[0] // rack 0, pod 0
	var cores, sameAggs, otherAggs, ownToR, otherToRs int
	for _, op := range p.Operators {
		node, err := ft.Node(op.Switch)
		if err != nil {
			t.Fatal(err)
		}
		eligible := p.Eligible(g, op)
		switch {
		case node.Tier == topo.TierCore:
			if !eligible {
				t.Fatal("core not eligible")
			}
			cores++
		case node.Tier == topo.TierAgg && node.Pod == 0:
			if !eligible {
				t.Fatal("same-pod agg not eligible")
			}
			sameAggs++
		case node.Tier == topo.TierAgg:
			if eligible {
				t.Fatal("other-pod agg eligible")
			}
			otherAggs++
		case node.Tier == topo.TierToR && node.Rack == 0:
			if !eligible {
				t.Fatal("own ToR not eligible")
			}
			ownToR++
		default:
			if eligible {
				t.Fatal("other ToR eligible")
			}
			otherToRs++
		}
	}
	if cores != 4 || sameAggs != 2 || ownToR != 1 {
		t.Fatalf("eligibility counts: cores=%d sameAggs=%d ownToR=%d", cores, sameAggs, ownToR)
	}
}

func TestExtraHopCostFormula(t *testing.T) {
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	g := Group{Rack: 0, TierTraffic: [3]float64{100, 10, 1}} // T0=100 T1=10 T2=1
	p := buildProblem(t, ft, []Group{g}, 1000)
	var torOp, aggOp, coreOp Operator
	for _, op := range p.Operators {
		switch op.Tier {
		case topo.TierToR:
			if n, _ := ft.Node(op.Switch); n.Rack == 0 {
				torOp = op
			}
		case topo.TierAgg:
			if n, _ := ft.Node(op.Switch); n.Pod == 0 && aggOp.ID == 0 {
				aggOp = op
			}
		case topo.TierCore:
			if coreOp.ID == 0 {
				coreOp = op
			}
		}
	}
	// h=0 at own ToR: no extra hops.
	if c := p.ExtraHopCost(g, torOp); c != 0 {
		t.Fatalf("ToR cost = %v", c)
	}
	// h=1 at agg: 2·(1+0)·T2 = 2.
	if c := p.ExtraHopCost(g, aggOp); math.Abs(c-2) > 1e-9 {
		t.Fatalf("agg cost = %v, want 2", c)
	}
	// h=2 at core: 2·2·T2 + 2·3·T1 = 4 + 60 = 64.
	if c := p.ExtraHopCost(g, coreOp); math.Abs(c-64) > 1e-9 {
		t.Fatalf("core cost = %v, want 64", c)
	}
}

func TestToRPlan(t *testing.T) {
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	p := buildProblem(t, ft, rackGroups(t, ft, 100, 10, 1), 0)
	plan, err := p.ToRPlan()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(plan); err != nil {
		t.Fatalf("ToR plan invalid: %v", err)
	}
	if len(plan.RSNodes) != ft.Racks() {
		t.Fatalf("ToR plan opened %d RSNodes, want %d", len(plan.RSNodes), ft.Racks())
	}
	if plan.ExtraHops != 0 {
		t.Fatalf("ToR plan extra hops = %v", plan.ExtraHops)
	}
	if plan.Method != MethodToR {
		t.Fatalf("method = %v", plan.Method)
	}
	for gi, oi := range plan.Assignment {
		op := p.Operators[oi]
		if op.Tier != topo.TierToR {
			t.Fatalf("group %d at non-ToR operator", gi)
		}
		tor, err := ft.ToROfRack(p.Groups[gi].Rack)
		if err != nil || op.Switch != tor {
			t.Fatalf("group %d not at its own ToR", gi)
		}
	}
}

func TestExactSolveMinimizesRSNodes(t *testing.T) {
	// Pure tier-0 traffic with a generous hop budget and capacity: the
	// optimum is a single core RSNode.
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	p := buildProblem(t, ft, rackGroups(t, ft, 1000, 0, 0), 1e9)
	plan, err := Solve(p, Options{Method: MethodExact})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(plan); err != nil {
		t.Fatal(err)
	}
	if !plan.Optimal {
		t.Fatal("exact solve not optimal")
	}
	if len(plan.RSNodes) != 1 {
		t.Fatalf("RSNodes = %d, want 1", len(plan.RSNodes))
	}
	if len(plan.Degraded) != 0 {
		t.Fatalf("degraded groups: %v", plan.Degraded)
	}
}

func TestCapacityForcesSpread(t *testing.T) {
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	// Each rack sends 90 kreq/s; Tmax 100 kreq/s → at most one group per
	// operator → 8 RSNodes.
	p := buildProblem(t, ft, rackGroups(t, ft, 90000, 0, 0), 1e12)
	plan, err := Solve(p, Options{Method: MethodExact})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(plan); err != nil {
		t.Fatal(err)
	}
	if len(plan.RSNodes) != ft.Racks() {
		t.Fatalf("RSNodes = %d, want %d (capacity-bound)", len(plan.RSNodes), ft.Racks())
	}
}

func TestZeroHopBudgetKeepsTier2AtToR(t *testing.T) {
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	// Tier-2 traffic costs extra hops anywhere above the ToR; with a zero
	// budget every group must stay at its own ToR.
	p := buildProblem(t, ft, rackGroups(t, ft, 0, 0, 100), 0)
	plan, err := Solve(p, Options{Method: MethodExact})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(plan); err != nil {
		t.Fatal(err)
	}
	for gi, oi := range plan.Assignment {
		if p.Operators[oi].Tier != topo.TierToR {
			t.Fatalf("group %d left its ToR despite zero hop budget", gi)
		}
	}
}

func TestHeuristicFeasibleAndComparable(t *testing.T) {
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	p := buildProblem(t, ft, rackGroups(t, ft, 5000, 500, 50), 50000)
	exact, err := Solve(p, Options{Method: MethodExact})
	if err != nil {
		t.Fatal(err)
	}
	heur, err := Solve(p, Options{Method: MethodHeuristic})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(heur); err != nil {
		t.Fatalf("heuristic plan invalid: %v", err)
	}
	if len(heur.RSNodes) < len(exact.RSNodes) {
		t.Fatalf("heuristic %d RSNodes beats exact optimum %d", len(heur.RSNodes), len(exact.RSNodes))
	}
	if len(heur.RSNodes) > 3*len(exact.RSNodes)+1 {
		t.Fatalf("heuristic %d RSNodes far from optimum %d", len(heur.RSNodes), len(exact.RSNodes))
	}
}

func TestAutoSwitchesToHeuristicOnLargeInstances(t *testing.T) {
	ft, err := topo.NewFatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	p := buildProblem(t, ft, rackGroups(t, ft, 2000, 200, 20), 1e6)
	plan, err := Solve(p, Options{Method: MethodAuto, ExactLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != MethodHeuristic {
		t.Fatalf("method = %v, want heuristic beyond exact limit", plan.Method)
	}
	if err := p.Validate(plan); err != nil {
		t.Fatal(err)
	}
}

func TestDRSDegradesHeaviestGroups(t *testing.T) {
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	groups := rackGroups(t, ft, 45000, 0, 0)
	// One monster group exceeding every operator's capacity.
	groups[3].TierTraffic = [3]float64{250000, 0, 0}
	p := buildProblem(t, ft, groups, 1e12)
	if _, err := Solve(p, Options{Method: MethodExact}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible without DRS", err)
	}
	plan, err := Solve(p, Options{Method: MethodExact, AllowDRS: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Degraded) != 1 || plan.Degraded[0] != 3 {
		t.Fatalf("degraded = %v, want the heaviest group [3]", plan.Degraded)
	}
	if plan.Assignment[3] != -1 {
		t.Fatal("degraded group still assigned")
	}
	if plan.Optimal {
		t.Fatal("plan with DRS must not claim optimality")
	}
	if err := p.Validate(plan); err != nil {
		t.Fatal(err)
	}
}

func TestSolveValidation(t *testing.T) {
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	p := buildProblem(t, ft, rackGroups(t, ft, 1, 0, 0), 10)
	empty := p
	empty.Groups = nil
	if _, err := Solve(empty, Options{}); !errors.Is(err, ErrInvalidParam) {
		t.Error("empty groups accepted")
	}
	noOps := p
	noOps.Operators = nil
	if _, err := Solve(noOps, Options{}); !errors.Is(err, ErrInvalidParam) {
		t.Error("no operators accepted")
	}
	// Plan labels and out-of-range values name no solver.
	for _, m := range []Method{MethodToR, MethodWarm, Method(9), Method(-1)} {
		if _, err := Solve(p, Options{Method: m}); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("method %v accepted", m)
		}
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	p := buildProblem(t, ft, rackGroups(t, ft, 1000, 100, 10), 1e6)
	if err := p.Validate(Plan{Assignment: []int{0}}); !errors.Is(err, ErrInvalidParam) {
		t.Error("wrong-length assignment accepted")
	}
	bad := make([]int, len(p.Groups))
	for i := range bad {
		bad[i] = 999
	}
	if err := p.Validate(Plan{Assignment: bad}); !errors.Is(err, ErrInvalidParam) {
		t.Error("out-of-range operator accepted")
	}
	// Assign a group to another rack's ToR: eligibility violation.
	torPlan, err := p.ToRPlan()
	if err != nil {
		t.Fatal(err)
	}
	torPlan.Assignment[0], torPlan.Assignment[1] = torPlan.Assignment[1], torPlan.Assignment[0]
	if err := p.Validate(torPlan); !errors.Is(err, ErrInfeasible) {
		t.Error("cross-rack ToR assignment accepted")
	}
}

func TestMethodStrings(t *testing.T) {
	for _, m := range []Method{MethodAuto, MethodExact, MethodHeuristic, MethodToR, MethodWarm, Method(9)} {
		if m.String() == "" {
			t.Errorf("Method(%d) has empty name", int(m))
		}
	}
	for _, m := range []Method{MethodAuto, MethodExact, MethodHeuristic, MethodToR, MethodWarm} {
		if got, err := ParseMethod(m.String()); err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
		var back Method
		if text, err := m.MarshalText(); err != nil || back.UnmarshalText(text) != nil || back != m {
			t.Errorf("%v: text round trip gave %v (%q, %v)", m, back, text, err)
		}
	}
	if _, err := ParseMethod(Method(9).String()); !errors.Is(err, ErrInvalidParam) {
		t.Errorf("ParseMethod accepted %q", Method(9).String())
	}
	// The zero method has no name, so it cannot be written.
	if _, err := Method(0).MarshalText(); !errors.Is(err, ErrInvalidParam) {
		t.Errorf("Method(0).MarshalText() = %v, want ErrInvalidParam", err)
	}
	var m Method
	if err := m.UnmarshalText([]byte("simplex")); !errors.Is(err, ErrInvalidParam) {
		t.Errorf("UnmarshalText(simplex) = %v, want ErrInvalidParam", err)
	}
}

// Paper-shape test: with realistic traffic (mostly cross-pod, some
// intra-pod, little intra-rack) and the paper's accelerator and budget
// parameters, the ILP consolidates RSNodes onto aggregation/core switches
// — far fewer RSNodes than the one-per-rack ToR plan (§V-A's example RSP
// had 6 aggregation + 1 core RSNode).
func TestPlacementPaperShape(t *testing.T) {
	ft, err := topo.NewFatTree(8) // 32 racks
	if err != nil {
		t.Fatal(err)
	}
	// A = 90 kreq/s split over racks; composition from uniform random
	// deployment: ~87% tier-0, ~10% tier-1, ~3% tier-2.
	per := 90000.0 / float64(ft.Racks())
	groups := rackGroups(t, ft, per*0.87, per*0.10, per*0.03)
	p := buildProblem(t, ft, groups, 0.2*90000)
	plan, err := Solve(p, Options{Method: MethodAuto})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(plan); err != nil {
		t.Fatal(err)
	}
	if len(plan.RSNodes) >= ft.Racks() {
		t.Fatalf("ILP plan uses %d RSNodes, no better than ToR's %d", len(plan.RSNodes), ft.Racks())
	}
	aboveToR := 0
	for _, oi := range plan.RSNodes {
		if p.Operators[oi].Tier != topo.TierToR {
			aboveToR++
		}
	}
	if aboveToR == 0 {
		t.Fatal("ILP plan placed no RSNode above the ToR tier")
	}
	if plan.ExtraHops > p.ExtraHopBudget {
		t.Fatalf("extra hops %v exceed budget", plan.ExtraHops)
	}
	t.Logf("paper-shape plan: %d RSNodes (%d above ToR), %.0f extra hops/s of %.0f budget",
		len(plan.RSNodes), aboveToR, plan.ExtraHops, p.ExtraHopBudget)
}

// The paper claims the algorithm applies to any n-tier tree-based
// topology (§III-B); exercise it on the non-redundant simple tree.
func TestPlacementOnSimpleTree(t *testing.T) {
	st, err := topo.NewSimpleTree(3, 2, 4) // 1 core, 3 aggs, 6 racks, 24 hosts
	if err != nil {
		t.Fatal(err)
	}
	groups := make([]Group, st.Racks())
	for r := range groups {
		hosts, err := st.HostsInRack(r)
		if err != nil {
			t.Fatal(err)
		}
		groups[r] = Group{ID: r, Rack: r, Hosts: hosts, TierTraffic: [3]float64{5000, 1000, 100}}
	}
	p, err := BuildProblem(st, groups, accel(), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	// Eligibility on the simple tree: each group has its ToR, its pod's
	// single agg, and the single core.
	for _, g := range groups {
		eligible := 0
		for _, op := range p.Operators {
			if p.Eligible(g, op) {
				eligible++
			}
		}
		if eligible != 3 {
			t.Fatalf("group %d has %d eligible operators, want 3", g.ID, eligible)
		}
	}
	plan, err := Solve(p, Options{Method: MethodExact})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(plan); err != nil {
		t.Fatal(err)
	}
	if !plan.Optimal {
		t.Fatal("simple-tree plan not optimal")
	}
	// 6 groups × 6.1k = 36.6k total fits one core operator (Tmax 100k)
	// within the generous budget: the optimum is a single RSNode.
	if len(plan.RSNodes) != 1 {
		t.Fatalf("RSNodes = %d, want 1", len(plan.RSNodes))
	}
	torPlan, err := p.ToRPlan()
	if err != nil {
		t.Fatal(err)
	}
	if len(torPlan.RSNodes) != st.Racks() {
		t.Fatalf("simple-tree ToR plan has %d RSNodes", len(torPlan.RSNodes))
	}
}

func BenchmarkExactPlacementK4(b *testing.B) {
	ft, err := topo.NewFatTree(4)
	if err != nil {
		b.Fatal(err)
	}
	groups := make([]Group, ft.Racks())
	for r := range groups {
		groups[r] = Group{ID: r, Rack: r, TierTraffic: [3]float64{5000, 500, 50}}
	}
	p, err := BuildProblem(ft, groups, accel(), 50000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p, Options{Method: MethodExact}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeuristicPlacementK16(b *testing.B) {
	ft, err := topo.NewFatTree(16)
	if err != nil {
		b.Fatal(err)
	}
	groups := make([]Group, ft.Racks())
	per := 90000.0 / float64(ft.Racks())
	for r := range groups {
		groups[r] = Group{ID: r, Rack: r, TierTraffic: [3]float64{per * 0.87, per * 0.10, per * 0.03}}
	}
	p, err := BuildProblem(ft, groups, accel(), 18000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p, Options{Method: MethodHeuristic}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDiffPlans(t *testing.T) {
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	p := buildProblem(t, ft, rackGroups(t, ft, 1000, 0, 0), 1e9)
	torPlan, err := p.ToRPlan()
	if err != nil {
		t.Fatal(err)
	}
	ilpPlan, err := Solve(p, Options{Method: MethodExact})
	if err != nil {
		t.Fatal(err)
	}

	// Identical plans diff to nothing.
	same := p.DiffPlans(torPlan, torPlan)
	if len(same.MovedGroups) != 0 || len(same.NewRSNodes) != 0 || len(same.RetiredRSNodes) != 0 || same.MovedTraffic != 0 {
		t.Fatalf("self diff = %+v", same)
	}

	// ToR → ILP: every group moves to the single core RSNode; all ToR
	// RSNodes retire.
	d := p.DiffPlans(torPlan, ilpPlan)
	if len(d.MovedGroups) != len(p.Groups) {
		t.Fatalf("moved %d groups, want all %d", len(d.MovedGroups), len(p.Groups))
	}
	if len(d.NewRSNodes) != 1 || len(d.RetiredRSNodes) != ft.Racks() {
		t.Fatalf("diff RSNodes: new=%v retired=%v", d.NewRSNodes, d.RetiredRSNodes)
	}
	wantTraffic := 1000.0 * float64(ft.Racks())
	if math.Abs(d.MovedTraffic-wantTraffic) > 1e-6 {
		t.Fatalf("moved traffic = %v, want %v", d.MovedTraffic, wantTraffic)
	}
	// Reverse direction mirrors the sets.
	rev := p.DiffPlans(ilpPlan, torPlan)
	if len(rev.NewRSNodes) != ft.Racks() || len(rev.RetiredRSNodes) != 1 {
		t.Fatalf("reverse diff: %+v", rev)
	}
}
