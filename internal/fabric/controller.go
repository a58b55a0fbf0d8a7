package fabric

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"netrs/internal/placement"
	"netrs/internal/sim"
	"netrs/internal/topo"
	"netrs/internal/wire"
)

// GroupDef declares one traffic group to the controller: a set of
// same-rack end-hosts whose requests are steered together (§III-A's
// host-level, rack-level, or intervening-level groups).
type GroupDef struct {
	ID    int
	Rack  int
	Hosts []topo.NodeID
}

// Controller is the NetRS controller (§II, §III): it collects traffic
// statistics from the ToR monitors, solves the RSNode-placement problem,
// and deploys the resulting Replica Selection Plan by rewriting the NetRS
// rules of every operator. It also realizes the exception handling of
// §III-C by flipping traffic groups to Degraded Replica Selection.
type Controller struct {
	net      *Network
	groups   []GroupDef
	accel    placement.AccelParams
	budget   float64
	solveOpt placement.Options

	plan        placement.Plan
	problem     placement.Problem
	hasPlan     bool
	rspVersions int

	// failedGroups records, per failed operator, the group indices its
	// failure flipped to DRS, so recovery can restore exactly the
	// pre-failure assignment. failedOrder tracks failure recency for the
	// fault engine's "most recently failed" target. deploy shrinks each
	// record to the groups the new plan still leaves in DRS.
	failedGroups map[uint16][]int
	failedOrder  []uint16
}

// NewController wires a controller to the network. budget is E, the
// extra-hop allowance per second (§III-B).
func NewController(net *Network, groups []GroupDef, accel placement.AccelParams, budget float64, opts placement.Options) (*Controller, error) {
	if net == nil {
		return nil, fmt.Errorf("nil network: %w", ErrInvalidParam)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("no traffic groups: %w", ErrInvalidParam)
	}
	seen := make(map[int]bool, len(groups))
	for _, g := range groups {
		if seen[g.ID] {
			return nil, fmt.Errorf("duplicate group id %d: %w", g.ID, ErrInvalidParam)
		}
		seen[g.ID] = true
		if g.Rack < 0 || g.Rack >= net.topo.Racks() {
			return nil, fmt.Errorf("group %d rack %d: %w", g.ID, g.Rack, ErrInvalidParam)
		}
		if len(g.Hosts) == 0 {
			return nil, fmt.Errorf("group %d has no hosts: %w", g.ID, ErrInvalidParam)
		}
	}
	c := &Controller{net: net, groups: groups, accel: accel, budget: budget, solveOpt: opts}
	c.bindHosts()
	return c, nil
}

// bindHosts installs the host→group match rules on every ToR (these do not
// change across RSPs).
func (c *Controller) bindHosts() {
	for _, g := range c.groups {
		tor, err := c.net.topo.ToROfRack(g.Rack)
		if err != nil {
			continue
		}
		op, err := c.net.Operator(tor)
		if err != nil {
			continue
		}
		for _, h := range g.Hosts {
			op.rules.BindHost(h, g.ID)
		}
	}
}

// Groups returns the controller's traffic-group definitions.
func (c *Controller) Groups() []GroupDef { return c.groups }

// RSPVersions counts how many plans have been deployed.
func (c *Controller) RSPVersions() int { return c.rspVersions }

// CurrentPlan returns the deployed plan; ok is false before any deploy.
func (c *Controller) CurrentPlan() (placement.Plan, bool) { return c.plan, c.hasPlan }

// InstallToRPlan deploys the straightforward RSP of the NetRS-ToR scheme:
// each group's RSNode is the operator at its own rack's ToR switch.
func (c *Controller) InstallToRPlan() error {
	problem, err := c.buildProblem(nil)
	if err != nil {
		return err
	}
	plan, err := problem.ToRPlan()
	if err != nil {
		return err
	}
	return c.deploy(problem, plan)
}

// UpdateRSPWithTraffic solves and deploys a plan from explicit per-group
// tier rates (req/s). Groups missing from the map are treated as idle, and
// failed operators get no capacity, as in every solve.
func (c *Controller) UpdateRSPWithTraffic(rates map[int][3]float64) (placement.Plan, error) {
	problem, err := c.buildProblem(rates)
	if err != nil {
		return placement.Plan{}, err
	}
	plan, err := placement.Solve(problem, c.solveOpt)
	if err != nil {
		return placement.Plan{}, fmt.Errorf("solve placement: %w", err)
	}
	if err := c.deploy(problem, plan); err != nil {
		return placement.Plan{}, err
	}
	return plan, nil
}

// CollectTraffic drains every ToR monitor into per-group tier rates
// (req/s) without deploying anything, for callers that post-process the
// statistics before solving.
func (c *Controller) CollectTraffic() map[int][3]float64 { return c.collect() }

// ResetMonitors restarts every ToR monitor's window at now without reading
// it. Call it when measurement begins: the monitors are constructed with
// windowStart == 0, so idle pipeline-fill time before the first response
// would otherwise dilute the first snapshot's rates.
func (c *Controller) ResetMonitors(now sim.Time) {
	for _, op := range c.net.OperatorsSorted() {
		if op.monitor != nil {
			op.monitor.ResetWindow(now)
		}
	}
}

// UpdateRSPDelta is the controller's periodic epoch update (§II): it
// re-solves the placement from explicit per-group tier rates and deploys
// the result. It differs from UpdateRSPWithTraffic in two ways:
//
//   - The solve is warm-started from the standing plan with whole-plan DRS
//     disabled: if the cold re-solve is infeasible (the greedy heuristic
//     can corner itself on a shifted traffic matrix), the standing
//     assignments are repaired group by group rather than aborting the
//     epoch, degrading only groups no operator can host.
//   - It returns the plan's diff against the previous plan.
//
// Like every deploy, it rewrites only the ToR rules of groups whose RSNode
// changed. In-flight requests already stamped with the old RSNode ID drain
// under the old binding (operators serve any request addressed to them);
// only new stampings follow the updated rules.
func (c *Controller) UpdateRSPDelta(rates map[int][3]float64) (placement.Plan, placement.PlanDiff, error) {
	if !c.hasPlan {
		return placement.Plan{}, placement.PlanDiff{}, errors.New("fabric: no plan deployed")
	}
	problem, err := c.buildProblem(rates)
	if err != nil {
		return placement.Plan{}, placement.PlanDiff{}, err
	}
	opts := c.solveOpt
	opts.AllowDRS = false
	plan, err := placement.SolveWarm(problem, c.plan, opts)
	if err != nil {
		return placement.Plan{}, placement.PlanDiff{}, fmt.Errorf("solve placement: %w", err)
	}
	diff := problem.DiffPlans(c.plan, plan)
	if err := c.deploy(problem, plan); err != nil {
		return placement.Plan{}, placement.PlanDiff{}, err
	}
	return plan, diff, nil
}

// collect drains every ToR monitor into per-group tier rates. Operators
// and snapshot groups are visited in sorted order: the per-group rates are
// float sums, and float addition is not associative, so map-order
// iteration would make the collected statistics — and every plan solved
// from them — vary bit-for-bit between runs.
func (c *Controller) collect() map[int][3]float64 {
	now := c.net.eng.Now()
	rates := make(map[int][3]float64, len(c.groups))
	for _, op := range c.net.OperatorsSorted() {
		if op.monitor == nil {
			continue
		}
		snap, ok := op.monitor.Snapshot(now)
		if !ok {
			continue
		}
		for _, g := range slices.Sorted(maps.Keys(snap)) {
			r := snap[g]
			cur := rates[g]
			for k := 0; k < 3; k++ {
				cur[k] += r[k]
			}
			rates[g] = cur
		}
	}
	return rates
}

// buildProblem assembles the placement problem from group definitions and
// traffic rates (nil rates → zero traffic, used by the ToR plan). Failed
// operators get no capacity, so no solve can resurrect a crashed RSNode by
// assigning groups to it.
func (c *Controller) buildProblem(rates map[int][3]float64) (placement.Problem, error) {
	groups := make([]placement.Group, len(c.groups))
	for i, g := range c.groups {
		pg := placement.Group{ID: g.ID, Rack: g.Rack, Hosts: g.Hosts}
		if rates != nil {
			pg.TierTraffic = rates[g.ID]
		}
		groups[i] = pg
	}
	problem, err := placement.BuildProblem(c.net.topo, groups, c.accel, c.budget)
	if err != nil {
		return placement.Problem{}, err
	}
	for i := range problem.Operators {
		op, err := c.net.OperatorByID(uint16(problem.Operators[i].ID))
		if err == nil && op.Failed() {
			problem.Operators[i].MaxTraffic = 0
		}
	}
	return problem, nil
}

// deploy installs plan as current. The first deploy writes every group's
// ToR rule; later ones rewrite only the groups whose RSNode changed, since
// the rules of the others already match. The operator order of the
// placement problem matches Network's switch order, so operator index i
// corresponds to RSNode ID i+1. Failure records survive, shrunk to the
// groups the new plan still leaves in DRS, so a later recovery restores
// only bindings the plan has not superseded.
func (c *Controller) deploy(problem placement.Problem, plan placement.Plan) error {
	if err := problem.Validate(plan); err != nil {
		return fmt.Errorf("refusing to deploy invalid plan: %w", err)
	}
	for gi, oi := range plan.Assignment {
		if c.hasPlan && c.plan.Assignment[gi] == oi {
			continue
		}
		if err := c.writeRule(&problem, gi, oi); err != nil {
			return err
		}
	}
	c.plan = plan
	c.problem = problem
	c.hasPlan = true
	c.rspVersions++
	for _, id := range slices.Sorted(maps.Keys(c.failedGroups)) {
		var kept []int
		for _, gi := range c.failedGroups[id] {
			if plan.Assignment[gi] == -1 {
				kept = append(kept, gi)
			}
		}
		c.failedGroups[id] = kept
	}
	return nil
}

// writeRule rewrites group gi's rule at its ToR: DRS when oi is -1,
// otherwise the RSNode ID of problem's operator oi, which must be a legal
// operator ID.
func (c *Controller) writeRule(problem *placement.Problem, gi, oi int) error {
	g := c.groups[gi]
	tor, err := c.net.topo.ToROfRack(g.Rack)
	if err != nil {
		return err
	}
	op, err := c.net.Operator(tor)
	if err != nil {
		return err
	}
	if oi == -1 {
		op.rules.SetDRS(g.ID)
		return nil
	}
	rid := problem.Operators[oi].ID
	if rid <= 0 || uint16(rid) == wire.DegradedRID {
		return fmt.Errorf("plan assigns illegal RSNode id %d: %w", rid, ErrInvalidParam)
	}
	op.rules.SetRSNode(g.ID, uint16(rid))
	return nil
}

// operatorIndex returns the deployed problem's index of the operator with
// RSNode ID id.
func (c *Controller) operatorIndex(id uint16) (int, error) {
	for idx, cand := range c.problem.Operators {
		if uint16(cand.ID) == id {
			return idx, nil
		}
	}
	return -1, fmt.Errorf("operator %d not in deployed problem: %w", id, ErrInvalidParam)
}

// HandleOperatorFailure implements §III-C scenario (iii): every traffic
// group whose RSNode is the failed operator flips to Degraded Replica
// Selection, without touching end-hosts.
func (c *Controller) HandleOperatorFailure(failed *Operator) error {
	if !c.hasPlan {
		return errors.New("fabric: no plan deployed")
	}
	if _, dup := c.failedGroups[failed.id]; dup {
		// Idempotent: the first failure already flipped this operator's
		// groups; a repeated report must not re-append to plan.Degraded.
		return nil
	}
	failed.Fail()
	oi, err := c.operatorIndex(failed.id)
	if err != nil {
		return err
	}
	var flipped []int
	for gi, assigned := range c.plan.Assignment {
		if assigned != oi {
			continue
		}
		if err := c.writeRule(&c.problem, gi, -1); err != nil {
			return err
		}
		c.plan.Assignment[gi] = -1
		flipped = append(flipped, gi)
	}
	sort.Ints(flipped)
	c.plan.Degraded = append(c.plan.Degraded, flipped...)
	if c.failedGroups == nil {
		c.failedGroups = make(map[uint16][]int)
	}
	c.failedGroups[failed.id] = flipped
	c.failedOrder = append(c.failedOrder, failed.id)
	return nil
}

// HandleOperatorRecovery is the inverse of HandleOperatorFailure: it
// re-admits a recovered operator into the RSP by restoring exactly the
// group assignments its failure flipped to DRS — ToR rules point back at
// the operator, the plan's assignment entries are reinstated, and the
// recorded indices leave plan.Degraded. Restoring the pre-failure plan
// (rather than solving a fresh ILP) keeps the recovered run comparable to
// the pre-crash run; the next periodic UpdateRSPDelta re-optimizes as
// usual. It is an error to recover an operator the controller never saw
// fail.
func (c *Controller) HandleOperatorRecovery(op *Operator) error {
	if !c.hasPlan {
		return errors.New("fabric: no plan deployed")
	}
	gis, ok := c.failedGroups[op.id]
	if !ok {
		return fmt.Errorf("operator %d not recorded as failed: %w", op.id, ErrInvalidParam)
	}
	oi, err := c.operatorIndex(op.id)
	if err != nil {
		return err
	}
	op.Recover()
	for _, gi := range gis {
		if err := c.writeRule(&c.problem, gi, oi); err != nil {
			return err
		}
		c.plan.Assignment[gi] = oi
	}
	c.pruneDegraded(gis)
	delete(c.failedGroups, op.id)
	for i, id := range c.failedOrder {
		if id == op.id {
			c.failedOrder = append(c.failedOrder[:i], c.failedOrder[i+1:]...)
			break
		}
	}
	return nil
}

// pruneDegraded removes one occurrence of each recovered group index from
// plan.Degraded, preserving the order of the remaining entries.
func (c *Controller) pruneDegraded(gis []int) {
	remove := make(map[int]int, len(gis))
	for _, gi := range gis {
		remove[gi]++
	}
	kept := c.plan.Degraded[:0]
	for _, gi := range c.plan.Degraded {
		if remove[gi] > 0 {
			remove[gi]--
			continue
		}
		kept = append(kept, gi)
	}
	c.plan.Degraded = kept
}

// FailedOperators returns the IDs of operators with an active failure
// record, oldest first; the last entry is the most recent failure.
func (c *Controller) FailedOperators() []uint16 {
	return slices.Clone(c.failedOrder)
}
