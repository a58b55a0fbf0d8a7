package fabric

// Tests for the controller's epoch machinery (UpdateRSPDelta, delta
// deploys, monitor window resets) and the windowed-counter semantics of
// the ToR monitors.

import (
	"math"
	"testing"

	"netrs/internal/sim"
	"netrs/internal/topo"
)

// TestMonitorWindowSemantics pins the windowed-versus-lifetime counter
// contract: Snapshot resets every windowed counter — including the
// unmatched count, which historically leaked across windows — while the
// lifetime counters keep accumulating.
func TestMonitorWindowSemantics(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	mon := h.torOperator().Monitor()
	unbound := h.servers[2] // rack-0 host with no group binding

	matched := &Packet{}
	for i := 0; i < 3; i++ {
		mon.count(matched, h.client)
	}
	for i := 0; i < 2; i++ {
		mon.count(matched, unbound)
	}
	if mon.Total() != 3 || mon.Unmatched() != 2 {
		t.Fatalf("window counters = (%d, %d), want (3, 2)", mon.Total(), mon.Unmatched())
	}

	if _, ok := mon.Snapshot(sim.Second); !ok {
		t.Fatal("nonempty window reported not ok")
	}
	if mon.Total() != 0 || mon.Unmatched() != 0 {
		t.Fatalf("post-snapshot window counters = (%d, %d), want (0, 0)",
			mon.Total(), mon.Unmatched())
	}
	if mon.TotalAll() != 3 || mon.UnmatchedAll() != 2 {
		t.Fatalf("lifetime counters = (%d, %d), want (3, 2)", mon.TotalAll(), mon.UnmatchedAll())
	}

	// The next window starts where the snapshot ended, counts afresh, and
	// the lifetime counters keep accumulating across it.
	mon.count(matched, unbound)
	if mon.Unmatched() != 1 || mon.UnmatchedAll() != 3 {
		t.Fatalf("second window unmatched = (%d, %d), want (1, 3)",
			mon.Unmatched(), mon.UnmatchedAll())
	}
}

// TestMonitorResetWindowHonestRates pins the first-window bias fix: a
// monitor constructed at t=0 but idle until late in the window reports
// diluted rates unless ResetWindow restarts the span when traffic begins.
func TestMonitorResetWindowHonestRates(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	mon := h.torOperator().Monitor()
	p := &Packet{}

	// 100 responses inside the last 100 ms of a 1 s window: the diluted
	// rate is 100/s, the honest rate 1000/s.
	for i := 0; i < 100; i++ {
		mon.count(p, h.client)
	}
	rates, ok := mon.Snapshot(sim.Second)
	if !ok {
		t.Fatal("empty snapshot")
	}
	diluted := rates[0][topo.TierCore]
	if diluted != 100 {
		t.Fatalf("diluted rate = %v, want 100 req/s", diluted)
	}

	mon.ResetWindow(1900 * sim.Millisecond)
	for i := 0; i < 100; i++ {
		mon.count(p, h.client)
	}
	rates, ok = mon.Snapshot(2 * sim.Second)
	if !ok {
		t.Fatal("empty snapshot after reset")
	}
	if honest := rates[0][topo.TierCore]; honest != 1000 {
		t.Fatalf("post-reset rate = %v, want 1000 req/s", honest)
	}

	// ResetMonitors reaches every ToR monitor through the controller.
	mon.count(p, h.client)
	h.ctrl.ResetMonitors(3 * sim.Second)
	if mon.Total() != 0 {
		t.Fatalf("ResetMonitors left %d counted responses", mon.Total())
	}
	if _, ok := mon.Snapshot(3 * sim.Second); ok {
		t.Fatal("zero-width window after ResetMonitors reported ok")
	}
}

// TestCollectTrafficDrainsMonitors checks the controller's collection
// path: CollectTraffic turns every ToR monitor's window into per-group
// rates that account for each delivered response, and restarts the
// windows at the collection instant, so an immediate second call has
// nothing to report.
func TestCollectTrafficDrainsMonitors(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := uint64(1); i <= n; i++ {
		h.sendRequest(i)
	}
	h.eng.Run()
	rates := h.ctrl.CollectTraffic()
	r, ok := rates[0]
	if len(rates) != 1 || !ok {
		t.Fatalf("collected rates %v, want group 0 only", rates)
	}
	secs := float64(h.eng.Now()) / float64(sim.Second)
	if got := (r[0] + r[1] + r[2]) * secs; math.Abs(got-n) > 1e-9 {
		t.Fatalf("collected rates %v over %v s account for %v responses, want %d", r, secs, got, n)
	}
	if again := h.ctrl.CollectTraffic(); len(again) != 0 {
		t.Fatalf("second collection at the same instant = %v, want none", again)
	}
}

// TestEpochDeltaDeploy drives the periodic-epoch deploy path: a traffic
// change moves the group's RSNode, an identical re-solve moves nothing,
// and new requests follow the updated rules.
func TestEpochDeltaDeploy(t *testing.T) {
	h := newHarness(t, nil)
	// Start from the ToR plan: the group's RSNode is its rack's ToR.
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	plan, _ := h.ctrl.CurrentPlan()
	torOI := plan.Assignment[0]

	// The epoch re-solve (pure tier-0 traffic, huge hop budget) picks a
	// core RSNode — the exact ILP's choice pinned by
	// TestCoreRSNodeViaILP — so the group moves off the ToR operator.
	newPlan, diff, err := h.ctrl.UpdateRSPDelta(map[int][3]float64{0: {1000, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.MovedGroups) != 1 || diff.MovedGroups[0] != 0 {
		t.Fatalf("moved groups = %v, want [0]", diff.MovedGroups)
	}
	if newPlan.Assignment[0] == torOI {
		t.Fatal("epoch did not move the group off the ToR RSNode")
	}
	if h.ctrl.RSPVersions() != 2 {
		t.Fatalf("RSP versions = %d, want 2 (initial deploy + delta)", h.ctrl.RSPVersions())
	}
	if len(newPlan.Degraded) != 0 {
		t.Fatalf("epoch plan degraded groups = %v", newPlan.Degraded)
	}

	// New requests follow the new binding.
	h.sendRequest(1)
	h.eng.Run()
	resp, ok := h.got[1]
	if !ok {
		t.Fatal("no response after delta deploy")
	}
	if want := uint16(h.ctrl.problem.Operators[newPlan.Assignment[0]].ID); resp.RID != want {
		t.Fatalf("response RID = %d, want re-placed RSNode %d", resp.RID, want)
	}

	// An identical window re-solves to the same plan: nothing moves.
	_, diff, err = h.ctrl.UpdateRSPDelta(map[int][3]float64{0: {1000, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.MovedGroups) != 0 {
		t.Fatalf("identical re-solve moved groups %v", diff.MovedGroups)
	}
}

// TestEpochInfeasibleKeepsPlan pins the mid-run exception contract: an
// epoch whose instance is infeasible (the group's rate exceeds every
// operator's capacity, and DRS fallback is disabled mid-run) deploys
// nothing — the standing plan, its rules, and the version counter stay
// untouched.
func TestEpochInfeasibleKeepsPlan(t *testing.T) {
	h := newHarness(t, nil)
	if _, err := h.ctrl.UpdateRSPWithTraffic(map[int][3]float64{0: {1000, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	before, _ := h.ctrl.CurrentPlan()
	versions := h.ctrl.RSPVersions()

	// Accelerator capacity is 0.5·1/5µs = 100k selections/s; 1e9 req/s
	// cannot fit anywhere.
	if _, _, err := h.ctrl.UpdateRSPDelta(map[int][3]float64{0: {1e9, 0, 0}}); err == nil {
		t.Fatal("infeasible epoch reported success")
	}
	after, _ := h.ctrl.CurrentPlan()
	if after.Assignment[0] != before.Assignment[0] {
		t.Fatalf("infeasible epoch moved the group: %d → %d", before.Assignment[0], after.Assignment[0])
	}
	if h.ctrl.RSPVersions() != versions {
		t.Fatalf("infeasible epoch bumped RSP versions %d → %d", versions, h.ctrl.RSPVersions())
	}
}

// TestEpochDoesNotResurrectFailedOperator pins the §III-C interaction: an
// epoch firing while an RSNode is crashed must re-place the failed node's
// groups elsewhere, not assign traffic back to it — and a later recovery
// must not clobber the epoch's fresher plan.
func TestEpochDoesNotResurrectFailedOperator(t *testing.T) {
	h := newHarness(t, nil)
	if _, err := h.ctrl.UpdateRSPWithTraffic(map[int][3]float64{0: {1000, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	plan, _ := h.ctrl.CurrentPlan()
	failedOI := plan.Assignment[0]
	failedID := uint16(h.ctrl.problem.Operators[failedOI].ID)
	failedOp, err := h.net.OperatorByID(failedID)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.HandleOperatorFailure(failedOp); err != nil {
		t.Fatal(err)
	}
	cur, _ := h.ctrl.CurrentPlan()
	if cur.Assignment[0] != -1 {
		t.Fatal("failure did not flip the group to DRS")
	}

	// The epoch fires during the fault window: the failed operator's
	// capacity is zeroed, so the group lands on a live operator.
	newPlan, diff, err := h.ctrl.UpdateRSPDelta(map[int][3]float64{0: {1000, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if newPlan.Assignment[0] == failedOI {
		t.Fatalf("epoch resurrected failed operator %d", failedID)
	}
	if newPlan.Assignment[0] == -1 {
		t.Fatal("epoch left the group in DRS")
	}
	if len(diff.MovedGroups) != 1 {
		t.Fatalf("moved groups = %v, want [0]", diff.MovedGroups)
	}
	if !failedOp.Failed() {
		t.Fatal("epoch cleared the operator's failed state")
	}
	if got := h.ctrl.FailedOperators(); len(got) != 1 || got[0] != failedID {
		t.Fatalf("failed-operator record = %v, want [%d]", got, failedID)
	}

	// Recovery re-admits the operator but restores nothing: the epoch's
	// plan superseded the pre-failure binding.
	if err := h.ctrl.HandleOperatorRecovery(failedOp); err != nil {
		t.Fatal(err)
	}
	if failedOp.Failed() {
		t.Fatal("recovery left the operator failed")
	}
	cur, _ = h.ctrl.CurrentPlan()
	if cur.Assignment[0] != newPlan.Assignment[0] {
		t.Fatalf("recovery clobbered the epoch plan: assignment %d, want %d",
			cur.Assignment[0], newPlan.Assignment[0])
	}
}

// TestEpochDeltaRequiresPlan pins the precondition: the delta path only
// updates an existing deployment.
func TestEpochDeltaRequiresPlan(t *testing.T) {
	h := newHarness(t, nil)
	if _, _, err := h.ctrl.UpdateRSPDelta(map[int][3]float64{0: {1, 0, 0}}); err == nil {
		t.Fatal("delta deploy without a plan succeeded")
	}
}
