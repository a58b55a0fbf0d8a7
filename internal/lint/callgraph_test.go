package lint

import (
	"strings"
	"testing"
)

// loadFixture loads the fixture module once per test.
func loadFixture(t *testing.T) *Module {
	t.Helper()
	mod, err := Load(fixtureRoot)
	if err != nil {
		t.Fatalf("Load(%s): %v", fixtureRoot, err)
	}
	return mod
}

// findDiag returns the diagnostics of one rule whose message contains
// substr.
func findDiags(diags []Diagnostic, rule, substr string) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Rule == rule && strings.Contains(d.Message, substr) {
			out = append(out, d)
		}
	}
	return out
}

// TestTransitiveChain checks the three-hop wallclock chain: the fixture
// pipeline's ArgHandler literal → stageOne → util.StepTwo →
// util.StepThree, with the finding anchored at the time.Sleep call.
func TestTransitiveChain(t *testing.T) {
	mod := loadFixture(t)
	diags := Run(mod.Packages)

	wall := findDiags(diags, ruleNameWallClock, "time.Sleep in util.StepThree")
	if len(wall) != 1 {
		t.Fatalf("transitive wallclock findings = %d, want 1 (all: %v)", len(wall), diags)
	}
	d := wall[0]
	if !strings.HasSuffix(d.Pos.Filename, "util/deep.go") {
		t.Errorf("finding anchored at %s, want util/deep.go", d.Pos.Filename)
	}
	wantHops := []string{
		"internal/fabric.NewPipeline:func@", // the scheduled root literal
		"(*internal/fabric.Pipeline).stageOne",
		"util.StepTwo",
		"util.StepThree",
	}
	if len(d.Chain) != len(wantHops) {
		t.Fatalf("chain = %v, want %d hops (%v)", d.ChainString(), len(wantHops), wantHops)
	}
	for i, prefix := range wantHops {
		if !strings.HasPrefix(d.Chain[i].Func, prefix) {
			t.Errorf("chain hop %d = %q, want prefix %q", i, d.Chain[i].Func, prefix)
		}
		if d.Chain[i].Pos.Line <= 0 {
			t.Errorf("chain hop %d (%s) lacks a position", i, d.Chain[i].Func)
		}
	}
	if got := d.String(); !strings.Contains(got, "call chain: ") || !strings.Contains(got, " -> util.StepThree") {
		t.Errorf("String() does not render the chain: %s", got)
	}
}

// TestGoroutineReachableFromHandler checks the transitive shard-safety
// case: fabric.bump (a scheduled handler) reaches util.Background, whose
// goroutine launch is reported with the chain.
func TestGoroutineReachableFromHandler(t *testing.T) {
	mod := loadFixture(t)
	diags := Run(mod.Packages)

	gos := findDiags(diags, ruleNameShardSafety, "goroutine launch reachable")
	if len(gos) != 1 {
		t.Fatalf("transitive goroutine findings = %d, want 1", len(gos))
	}
	d := gos[0]
	if !strings.HasSuffix(d.Pos.Filename, "util/deep.go") {
		t.Errorf("finding anchored at %s, want util/deep.go", d.Pos.Filename)
	}
	if got := d.ChainString(); !strings.Contains(got, "internal/fabric.bump") ||
		!strings.HasSuffix(got, "util.Background") {
		t.Errorf("chain = %q, want fabric.bump -> ... -> util.Background", got)
	}

	// The shared-state write in bump itself carries a chain too.
	writes := findDiags(diags, ruleNameShardSafety, "writes package-level variable opsDone")
	if len(writes) != 1 {
		t.Fatalf("global-write findings = %d, want 1", len(writes))
	}
	if got := writes[0].ChainString(); !strings.Contains(got, "bump") {
		t.Errorf("global-write chain = %q, want it to include bump", got)
	}
}

// TestStaleAfterFix is the waiver-lifecycle regression: hot.go's fixed()
// preallocates, so the //lint:hotalloc directive left behind must be
// reported stale — while the identical directive in waived(), whose
// append still fires, must not.
func TestStaleAfterFix(t *testing.T) {
	mod := loadFixture(t)
	diags := Run(mod.Packages)

	var stale []Diagnostic
	for _, d := range diags {
		if d.Rule == ruleNameWaiver && strings.Contains(d.Message, "stale waiver") &&
			strings.Contains(d.Message, "hotalloc") {
			stale = append(stale, d)
		}
	}
	if len(stale) != 1 {
		t.Fatalf("stale hotalloc waivers = %d, want exactly 1 (the fixed() leftover)", len(stale))
	}
	if !strings.HasSuffix(stale[0].Pos.Filename, "fabric/hot.go") {
		t.Errorf("stale waiver at %s, want fabric/hot.go", stale[0].Pos.Filename)
	}
	// The shardsafety stale case (Sequential) is audited the same way.
	found := false
	for _, d := range diags {
		if d.Rule == ruleNameWaiver && strings.Contains(d.Message, "stale waiver") &&
			strings.Contains(d.Message, "shardsafety") {
			found = true
		}
	}
	if !found {
		t.Error("no stale shardsafety waiver reported for Sequential()")
	}
}

// TestRunRulesFiltering checks per-rule enable/disable: with only
// wallclock enabled, no other rule reports, and waiver directives serving
// disabled rules are not judged stale.
func TestRunRulesFiltering(t *testing.T) {
	mod := loadFixture(t)

	only := RunRules(mod.Packages, map[string]bool{ruleNameWallClock: true})
	if len(only) == 0 {
		t.Fatal("wallclock-only run found nothing; fixture has wallclock findings")
	}
	for _, d := range only {
		if d.Rule != ruleNameWallClock {
			t.Errorf("rules filtered to wallclock, got %s: %s", d.Rule, d)
		}
	}

	// With waiver enabled but hotalloc disabled, the hotalloc directives
	// (both the live one and the genuinely stale one) must not be audited:
	// their findings were never produced.
	audit := RunRules(mod.Packages, map[string]bool{ruleNameWaiver: true, ruleNameWallClock: true})
	for _, d := range audit {
		if d.Rule == ruleNameWaiver && strings.Contains(d.Message, "hotalloc") &&
			strings.Contains(d.Message, "stale") {
			t.Errorf("hotalloc waiver judged stale while hotalloc was disabled: %s", d)
		}
	}

	// The full run and the all-enabled run agree.
	all := map[string]bool{}
	for _, r := range Rules() {
		all[r.Name()] = true
	}
	a, b := Run(loadFixture(t).Packages), RunRules(loadFixture(t).Packages, all)
	if len(a) != len(b) {
		t.Errorf("Run=%d findings, RunRules(all)=%d; they must agree", len(a), len(b))
	}
}

// TestHotPathColdMirror pins the reachability boundary: work() is flagged
// four ways (boxing at both an engine and a lane ScheduleArg), its
// unreached mirror Cold() not at all, and setup-time boxing
// (Pipeline.Start) stays legal. A fifth finding comes from the exchange
// root: sim/shard.go's drain is reached by no Schedule call and sits on
// the concurrency allowlist, yet its bare append is still flagged. The
// sixth is the lane-only handler of TestLaneHandlerIsRoot, and the last
// two are the sorted-stream handler's of TestSortedHandlerIsRoot.
func TestHotPathColdMirror(t *testing.T) {
	mod := loadFixture(t)
	diags := Run(mod.Packages)

	for _, d := range diags {
		if d.Rule != ruleNameHotAlloc {
			continue
		}
		if !strings.HasSuffix(d.Pos.Filename, "fabric/hot.go") &&
			!strings.HasSuffix(d.Pos.Filename, "fabric/lane.go") &&
			!strings.HasSuffix(d.Pos.Filename, "fabric/sorted.go") &&
			!strings.HasSuffix(d.Pos.Filename, "sim/shard.go") {
			t.Errorf("hotalloc finding outside hot.go/lane.go/sorted.go/shard.go: %s", d)
		}
		if len(d.Chain) == 0 {
			t.Errorf("hotalloc finding lacks a call chain: %s", d)
		}
	}
	if n := len(findDiags(diags, ruleNameHotAlloc, "")); n != 8 {
		t.Errorf("hotalloc findings = %d, want 8 (closure, 3 boxing, 4 bare appends)", n)
	}

	// The exchange finding specifically: anchored in shard.go with a chain
	// starting at drain, and NOT accompanied by any shardsafety complaint
	// about shard.go's sync import (the file stays concurrency-allowlisted).
	exch := 0
	for _, d := range findDiags(diags, ruleNameHotAlloc, "append to delivered") {
		exch++
		if got := d.ChainString(); !strings.Contains(got, "drain") {
			t.Errorf("exchange finding chain = %q, want it to start at drain", got)
		}
	}
	if exch != 1 {
		t.Errorf("exchange-root hotalloc findings = %d, want 1", exch)
	}
	for _, d := range diags {
		if d.Rule == ruleNameShardSafety && strings.HasSuffix(d.Pos.Filename, "sim/shard.go") {
			t.Errorf("shardsafety flagged allowlisted shard.go: %s", d)
		}
	}
}

// TestLaneHandlerIsRoot checks that a sim.Lane's ScheduleArg registers its
// handler as an ArgHandler root: relayStep is named nowhere else, yet its
// bare append (hotalloc) and its package-level write (shardsafety) are
// reported with a chain from it, and a non-pointer arg sent down a lane is
// a boxing finding.
func TestLaneHandlerIsRoot(t *testing.T) {
	mod := loadFixture(t)
	diags := Run(mod.Packages)

	for _, c := range []struct{ rule, substr string }{
		{ruleNameHotAlloc, "append to grown"},
		{ruleNameShardSafety, "writes package-level variable relayed"},
	} {
		var found []Diagnostic
		for _, d := range findDiags(diags, c.rule, c.substr) {
			if strings.HasSuffix(d.Pos.Filename, "fabric/lane.go") {
				found = append(found, d)
			}
		}
		if len(found) != 1 {
			t.Fatalf("%s findings in lane.go matching %q = %d, want 1", c.rule, c.substr, len(found))
		}
		if got := found[0].ChainString(); got != "internal/fabric.relayStep" {
			t.Errorf("%s chain = %q, want the lane handler internal/fabric.relayStep", c.rule, got)
		}
	}
	boxed := 0
	for _, d := range findDiags(diags, ruleNameHotAlloc, "arg to ScheduleArg boxes") {
		if strings.HasSuffix(d.Pos.Filename, "fabric/hot.go") {
			boxed++
		}
	}
	if boxed != 2 {
		t.Errorf("boxing findings in hot.go = %d, want 2 (engine and lane ScheduleArg)", boxed)
	}
}

// TestSortedHandlerIsRoot checks that Engine.Stream registers its handler
// as an ArgHandler root: replayStep is named nowhere else, yet its bare
// append and the non-pointer argument it schedules are reported with a
// chain from it, while neither the pointer Stream.Push carries nor the
// index of an RNG's Stream is a boxing finding.
func TestSortedHandlerIsRoot(t *testing.T) {
	mod := loadFixture(t)
	diags := Run(mod.Packages)

	var found []Diagnostic
	for _, d := range findDiags(diags, ruleNameHotAlloc, "") {
		if strings.HasSuffix(d.Pos.Filename, "fabric/sorted.go") {
			found = append(found, d)
		}
	}
	if len(found) != 2 {
		t.Fatalf("hotalloc findings in sorted.go = %d, want 2: %v", len(found), found)
	}
	for i, substr := range []string{"append to grown", "int arg to ScheduleArg boxes"} {
		if !strings.Contains(found[i].Message, substr) {
			t.Errorf("finding %d = %q, want it to mention %q", i, found[i].Message, substr)
		}
		if got := found[i].ChainString(); got != "internal/fabric.replayStep" {
			t.Errorf("finding %d chain = %q, want the sorted-stream handler internal/fabric.replayStep", i, got)
		}
	}
}
