package netrs

// Golden runs across shard counts. One runner executes every run over P
// partitions: P = 1 when Shards ≤ 1, a single partition whose event
// order is the one the golden files were taken from, and the topology's
// pod partitions otherwise, where the shard count only sizes the worker
// pool. Every row must reproduce its golden file at shards 2 and 4: the
// paper's schemes TestGoldenSummaryDigest's file, whose run is their
// shards-1 run, and the cache schemes their own, pinned at shards 1 as
// well. Each dump carries the cache counters, so invalidations crossing
// partitions through the exchange must not reorder against the lookahead
// window. P > 1 can still order an exact-instant tie between two
// partitions differently from P = 1 (bench/README.md, defect 3); these
// configurations have none.

import "testing"

func TestGoldenShardDigest(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	// CliRS-R95 is not shardable: see TestShardedConfigValidation.
	for _, scheme := range []Scheme{SchemeCliRS, SchemeNetRSToR, SchemeNetRSILP} {
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			checkRuns(t, "TestGoldenSummaryDigest/"+scheme.String(), goldenConfig(scheme), seeds, variant{2, 1}, variant{4, 1})
		})
	}
	// The cache rows run with 5% writes, a 64 KiB ToR cache and admit-after
	// 1, and check the shards-1 run actually hits and invalidates, or the
	// equivalence would be vacuous.
	for _, scheme := range []Scheme{SchemeNetCache, SchemeNetRSCache} {
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			cfg := goldenConfig(scheme)
			cfg.WriteFraction = 0.05
			cfg.CacheBytes = 64 << 10
			cfg.CacheAdmitAfter = 1
			for i, res := range checkRuns(t, t.Name(), cfg, seeds, variant{1, 1}, variant{2, 1}, variant{4, 1}) {
				if res.CacheHits == 0 || res.CacheInvalidations == 0 {
					t.Fatalf("seed %d: cache inactive (%d hits, %d invalidations); the equivalence would be vacuous",
						seeds[i], res.CacheHits, res.CacheInvalidations)
				}
			}
		})
	}
}

// TestShardedDeployAtFirstCompletion pins the completion-count triggers'
// tie at P > 1: with one warmup request, (warmup+1)/2 puts the ILP deploy
// at the first completion, the same instant as the monitor reset, and the
// deploy must run first at every shard count. A 150 µs accelerator makes
// capacity bind, so a plan solved from the reset (empty) window differs
// from one solved from the first completion's traffic and the order shows
// in the golden file. The epochs case adds the controller loop the deploy
// arms.
func TestShardedDeployAtFirstCompletion(t *testing.T) {
	for _, tc := range []struct {
		name     string
		interval Time
	}{
		{name: "single-solve"},
		{name: "epochs", interval: 50 * Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := goldenConfig(SchemeNetRSILP)
			cfg.WarmupFraction = 0.0006 // int(0.0006 × 2500) = 1 warmup request
			cfg.ControllerInterval = tc.interval
			cfg.Fabric.AccelService = 150 * Microsecond
			results := checkRuns(t, t.Name(), cfg, []uint64{1, 2, 3}, variant{1, 1}, variant{2, 1}, variant{4, 1})
			if tc.interval > 0 {
				requireEpochs(t, results)
			}
		})
	}
}
