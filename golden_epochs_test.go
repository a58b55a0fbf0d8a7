package netrs

// Golden controller-epoch runs, plus the adaptation experiment's
// qualitative shape. The golden file pins a fully-featured epoch run —
// timeline buckets, recorded errors, and the per-epoch plan history (minus
// the wall-clock solve time, which is diagnostic-only and tagged
// golden:"-") — across parallelism levels, locking the periodic re-solve
// loop, the windowed monitor snapshots, and the delta deploy path against
// nondeterminism.

import "testing"

// goldenEpochConfig is the adaptation scenario at golden scale: skewed
// demand whose hot set relocates to the opposite racks mid-run, an
// accelerator slow enough (150 µs per selection) that placement capacity
// binds, and the controller re-solving every 50 ms from windowed monitor
// rates.
func goldenEpochConfig() Config {
	cfg := goldenConfig(SchemeNetRSILP)
	cfg.TimelineBucket = 25 * Millisecond
	cfg.DemandSkew = 0.9
	cfg.DemandShiftAt = 0.45
	cfg.DemandShiftFraction = 1
	cfg.Fabric.AccelService = 150 * Microsecond
	cfg.ControllerInterval = 50 * Millisecond
	return cfg
}

// TestGoldenEpochDigest proves an epoch-enabled adaptation run — windowed
// monitor snapshots, periodic ILP re-solves, delta deploys, the demand
// shift — is bit-identical at every parallelism level and pinned against
// its golden file.
func TestGoldenEpochDigest(t *testing.T) {
	requireEpochs(t, checkRuns(t, t.Name(), goldenEpochConfig(), []uint64{1, 2, 3}, byParallelism...))
}

// requireEpochs fails unless every run recorded a controller epoch, so a
// golden file cannot be re-pinned to runs whose controller loop never
// fired.
func requireEpochs(t *testing.T, results []Result) {
	t.Helper()
	for i, r := range results {
		if len(r.Epochs) == 0 {
			t.Fatalf("run %d recorded no epochs", i)
		}
	}
}

// TestAdaptEpochsPlaceCleanly regression-tests the epoch-placement
// failure once visible in the adapt figure as "controller epoch at
// <t> ms: heuristic cannot place 1 groups (keeping plan)": the greedy
// placement heuristic could corner itself on the shifted traffic matrix
// and give up instead of repairing its warm start. The fix (warm-start
// repair in the epoch re-solve) must keep every epoch of both arms
// error-free under the exact mutations `netrs-figs -fig adapt` applies —
// host-level traffic groups, 0.9 skew, a 150 µs accelerator — at reduced
// scale.
func TestAdaptEpochsPlaceCleanly(t *testing.T) {
	cfg := testConfig()
	cfg.Requests = 12000
	cfg.DemandSkew = 0.9
	cfg.Fabric.AccelService = 150 * Microsecond
	cfg.RackLevelGroups = false
	res, err := RunAdapt(cfg, 0.45, 50*Millisecond, 50*Millisecond, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		res  Result
	}{{"static", res.Static}, {"epochs", res.Epochs}} {
		if len(arm.res.Errors) != 0 {
			t.Errorf("%s arm finished with errors: %q", arm.name, arm.res.Errors)
		}
	}
	if len(res.Epochs.Epochs) == 0 {
		t.Fatal("epochs arm recorded no controller epochs; the error check would be vacuous")
	}
}

// TestAdaptExperimentShape asserts the adaptation experiment's qualitative
// claim at test scale: after the demand shift relocates the hot racks, the
// static plan's overloaded RSNode drives latency up and keeps it there,
// while the controller epochs re-place the hot groups and return the mean
// to its pre-shift level.
func TestAdaptExperimentShape(t *testing.T) {
	cfg := testConfig()
	cfg.Requests = 12000
	cfg.DemandSkew = 0.9
	cfg.Fabric.AccelService = 150 * Microsecond
	res, err := RunAdapt(cfg, 0.45, 50*Millisecond, 25*Millisecond, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spre, spost := res.PhaseMeans(res.Static)
	epre, epost := res.PhaseMeans(res.Epochs)
	if spre <= 0 || epre <= 0 {
		t.Fatalf("empty pre-shift phases: static %v, epochs %v", spre, epre)
	}
	// The epochs arm re-converges: its settled post-shift mean is within
	// 25% of its pre-shift mean.
	if epost > 1.25*epre {
		t.Fatalf("epochs arm did not re-converge: pre %0.3f ms, post %0.3f ms", epre, epost)
	}
	// The static arm stays degraded, and by a wide margin.
	if spost < 3*spre {
		t.Fatalf("static arm not degraded: pre %0.3f ms, post %0.3f ms", spre, spost)
	}
	if spost < 5*epost {
		t.Fatalf("static post-shift mean %0.3f ms not clearly above epochs' %0.3f ms", spost, epost)
	}
	if len(res.Static.Epochs) != 0 {
		t.Fatalf("static arm recorded epochs: %+v", res.Static.Epochs)
	}
	moved := 0
	for _, e := range res.Epochs.Epochs {
		moved += e.MovedGroups
	}
	if moved == 0 {
		t.Fatal("no epoch moved any group")
	}
	// Validation of the experiment's own parameters.
	if _, err := RunAdapt(cfg, 0, 50*Millisecond, 25*Millisecond, RunOptions{}); err == nil {
		t.Fatal("zero shift fraction accepted")
	}
	if _, err := RunAdapt(cfg, 0.45, 0, 25*Millisecond, RunOptions{}); err == nil {
		t.Fatal("zero interval accepted")
	}
}
