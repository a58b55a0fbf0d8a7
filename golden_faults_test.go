package netrs

// Golden fault-schedule runs. Like TestGoldenSummaryDigest, this pins the
// bit-exact output of a fully-featured fault experiment — timeline buckets
// and recorded fault errors included — across parallelism levels, so the
// injector, the controller recovery path, and the timeline recorder are
// all locked against nondeterminism and silent semantic drift.

import "testing"

// goldenFaultConfig exercises every fault kind in one run: an RSNode crash
// and recovery positioned by completion fraction, plus duration-bounded
// server slowdown, server crash, and link-delay events on the time axis,
// with the 25 ms timeline recorder attached.
func goldenFaultConfig(scheme Scheme) Config {
	cfg := goldenConfig(scheme)
	cfg.TimelineBucket = 25 * Millisecond
	cfg.Scenario.Faults = []FaultEvent{
		{Kind: FaultRSNodeCrash, AtFraction: 0.3, RSNode: FaultTargetBusiest},
		{Kind: FaultRSNodeRecover, AtFraction: 0.6, RSNode: FaultTargetFailed},
		{Kind: FaultServerSlowdown, AtMs: 30, Server: 2, Multiplier: 5, DurationMs: 40},
		{Kind: FaultServerCrash, AtMs: 50, Server: 5, DurationMs: 30},
		{Kind: FaultLinkDelay, AtMs: 20, Rack: 1, ExtraMs: 0.3, DurationMs: 60},
	}
	return cfg
}

// TestGoldenFaultScheduleDigest proves a faulted run — injector firings,
// DRS windows, timeline buckets, error lines — is bit-identical at every
// parallelism level and pinned against its golden file. Every scheme but
// CliRS-R95, whose golden run cancels duplicates and so needs one
// partition, reproduces its file at shards 2 and 4 as well: the faults
// run at the barrier, and the partitions' timelines merge exactly.
func TestGoldenFaultScheduleDigest(t *testing.T) {
	for _, scheme := range Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			variants := byParallelism
			if scheme != SchemeCliRSR95 {
				variants = append(variants[:len(variants):len(variants)], variant{2, 1}, variant{4, 1})
			}
			checkRuns(t, t.Name(), goldenFaultConfig(scheme), []uint64{1, 2, 3}, variants...)
		})
	}
}

// TestFaultRunDegradesAndReconverges asserts the resilience experiment's
// qualitative shape on the NetRS schemes: the DRS share is zero before the
// crash threshold, positive inside the crash window, and back to zero by the
// run's final bucket — degradation followed by re-convergence. The CliRS
// run records exactly the two cannot-apply errors and never degrades.
func TestFaultRunDegradesAndReconverges(t *testing.T) {
	res, err := RunResilience(goldenConfig(SchemeCliRS), 0.35, 0.65, 25*Millisecond, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{SchemeNetRSToR, SchemeNetRSILP} {
		first, last, ok := res.DegradedWindow(scheme)
		if !ok {
			t.Fatalf("%s: no degraded window — crash did not take effect", scheme)
		}
		var run ResilienceRun
		for _, r := range res.Runs {
			if r.Scheme == scheme {
				run = r
			}
		}
		if len(run.Result.Errors) != 0 {
			t.Fatalf("%s: unexpected fault errors %v", scheme, run.Result.Errors)
		}
		if first == 0 {
			t.Fatalf("%s: degraded from the first bucket; expected a clean pre-crash phase", scheme)
		}
		if last >= len(run.Result.Timeline)-1 {
			t.Fatalf("%s: still degraded in the final bucket; expected re-convergence", scheme)
		}
		if run.Result.DegradedResponses == 0 {
			t.Fatalf("%s: no degraded responses counted", scheme)
		}
	}
	for _, scheme := range []Scheme{SchemeCliRS, SchemeCliRSR95} {
		if _, _, ok := res.DegradedWindow(scheme); ok {
			t.Fatalf("%s: control curve degraded", scheme)
		}
		for _, r := range res.Runs {
			if r.Scheme == scheme && len(r.Result.Errors) != 2 {
				t.Fatalf("%s: want 2 cannot-apply errors, got %v", scheme, r.Result.Errors)
			}
		}
	}
}

// TestRSNodeCrashBeforeILPDeploy pins the one deploy path: an RSNode that
// crashes before the ILP deploy stays failed through it. The solve gives
// the crashed operator no capacity, so the plan serves every group from
// live RSNodes, and the failure record survives, so the later recovery
// applies instead of reporting that nothing failed.
func TestRSNodeCrashBeforeILPDeploy(t *testing.T) {
	cfg := goldenConfig(SchemeNetRSILP)
	cfg.Scenario.Faults = []FaultEvent{
		{Kind: FaultRSNodeCrash, AtMs: 1, RSNode: "1"},
		{Kind: FaultRSNodeRecover, AtFraction: 0.6, RSNode: FaultTargetFailed},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("fault errors %v, want none", res.Errors)
	}
	// The ToR plan puts no group on operator 1, so once no solve can
	// either, no request is ever steered to the crashed RSNode.
	if res.DegradedResponses != 0 || res.DegradedGroups != 0 {
		t.Fatalf("%d degraded responses, %d degraded groups; want none",
			res.DegradedResponses, res.DegradedGroups)
	}
}
