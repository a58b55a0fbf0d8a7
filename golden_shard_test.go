package netrs

// Golden digests across shard counts. One runner executes every run over P
// partitions: P = 1 when Shards ≤ 1, a single plain engine whose event
// order is the one the pinned digests were taken from, and the topology's
// pod partitions otherwise, where the shard count only sizes the worker
// pool. Every row must reproduce its pinned digest at shards 1, 2, and 4:
// the pre-refactor digest for the paper's schemes, goldenCacheDigests for
// the cache schemes, whose cache counters must also match the shards-1
// run's (invalidations crossing partitions through the exchange must not
// reorder against the lookahead window). P > 1 can still order an
// exact-instant tie between two partitions differently from P = 1
// (bench/README.md, defect 3); these configurations have none.

import "testing"

// goldenCacheDigests pins the cache rows (5% writes, a 64 KiB ToR cache,
// admit-after 1) at P = 1, so a change that moves the cache schemes' results
// fails even when every shard count moves with it.
var goldenCacheDigests = map[string]uint64{
	"NetCache":    0xf48af6f288fc3dd9,
	"NetRS+Cache": 0x9d9185f74fc9194c,
}

func TestGoldenShardDigest(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	// CliRS-R95 is not shardable: see TestShardedConfigValidation.
	rows := []struct {
		scheme Scheme
		// cache runs the scheme with 5% writes and a 64 KiB ToR cache, and
		// checks the shards-1 run actually hits and invalidates, or the
		// equivalence would be vacuous.
		cache bool
	}{
		{scheme: SchemeCliRS},
		{scheme: SchemeNetRSToR},
		{scheme: SchemeNetRSILP},
		{scheme: SchemeNetCache, cache: true},
		{scheme: SchemeNetRSCache, cache: true},
	}
	for _, row := range rows {
		t.Run(row.scheme.String(), func(t *testing.T) {
			t.Parallel()
			cfg := goldenConfig(row.scheme)
			if row.cache {
				cfg.WriteFraction = 0.05
				cfg.CacheBytes = 64 << 10
				cfg.CacheAdmitAfter = 1
			}
			want := goldenDigests[row.scheme.String()]
			if row.cache {
				want = goldenCacheDigests[row.scheme.String()]
			}
			var ref []Result
			for _, shards := range []int{1, 2, 4} {
				cfg.Shards = shards
				results, merged, err := RunRepeatedWith(cfg, seeds, RunOptions{Parallelism: 1})
				if err != nil {
					t.Fatalf("shards %d: %v", shards, err)
				}
				got := resultDigest(results, merged)
				if ref == nil {
					ref = results
					if row.cache {
						for i, res := range results {
							if res.CacheHits == 0 || res.CacheInvalidations == 0 {
								t.Fatalf("seed %d: cache inactive (%d hits, %d invalidations); the equivalence would be vacuous",
									seeds[i], res.CacheHits, res.CacheInvalidations)
							}
						}
					}
				}
				if got != want {
					t.Errorf("shards %d: digest = %#016x, want %#016x", shards, got, want)
				}
				for i, res := range results {
					if have, base := cacheCounters(res), cacheCounters(ref[i]); have != base {
						t.Errorf("shards %d seed %d: cache counters %v, want the shards-1 run's %v",
							shards, seeds[i], have, base)
					}
				}
			}
		})
	}
}

// cacheCounters lists a result's cache counters for comparison.
func cacheCounters(r Result) [5]uint64 {
	return [5]uint64{r.CacheHits, r.CacheMisses, r.CacheAdmissions, r.CacheEvictions, r.CacheInvalidations}
}

// TestShardedDeployAtFirstCompletion pins the completion-count triggers'
// tie at P > 1: with one warmup request, (warmup+1)/2 puts the ILP deploy
// at the first completion, the same instant as the monitor reset, and the
// deploy must run first at every shard count. A 150 µs accelerator makes
// capacity bind, so a plan solved from the reset (empty) window differs
// from one solved from the first completion's traffic and the order shows
// in the digest. The epochs case adds the controller loop the deploy arms.
func TestShardedDeployAtFirstCompletion(t *testing.T) {
	seeds := []uint64{1, 2, 3}
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
			var want uint64
			for _, shards := range []int{1, 2, 4} {
				cfg.Shards = shards
				results, merged, err := RunRepeatedWith(cfg, seeds, RunOptions{Parallelism: 1})
				if err != nil {
					t.Fatalf("shards %d: %v", shards, err)
				}
				got := epochDigest(results, merged)
				if shards == 1 {
					want = got
					for i, res := range results {
						if tc.interval > 0 && len(res.Epochs) == 0 {
							t.Fatalf("seed %d recorded no epochs; the epochs case would be vacuous", seeds[i])
						}
					}
					continue
				}
				if got != want {
					t.Errorf("shards %d: digest = %#016x, want the shards-1 run's %#016x", shards, got, want)
				}
			}
		})
	}
}
