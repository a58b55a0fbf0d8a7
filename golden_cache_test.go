package netrs

// Golden guarantees of the cache tier. Landing the ToR caches touched the
// packet format (Key/Write fields), the workload (the gated write-coin
// stream), and the runner's dispatch paths — so the test below pins that
// a config without a cache budget reproduces every pre-existing golden
// digest bit for bit, and that a zero-budget NetRS+Cache IS NetRS-ToR.
// TestGoldenShardDigest's cache rows pin the same schemes across shard
// counts, cache counters included.

import "testing"

func TestCacheDisabledIsBitIdentical(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	// Every pre-existing scheme still reproduces its pinned digest with
	// the cache tier compiled in and its config absent.
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			cfg := goldenConfig(scheme)
			results, merged, err := RunRepeatedWith(cfg, seeds, RunOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := resultDigest(results, merged), goldenDigests[scheme.String()]; got != want {
				t.Errorf("digest = %#016x, want %#016x", got, want)
			}
		})
	}
	// A zero-budget NetRS+Cache is NetRS-ToR: the inert caches never hit,
	// no ToR enrolls for invalidations, and no extra RNG is consumed.
	t.Run("NetRS+Cache/zero-budget", func(t *testing.T) {
		t.Parallel()
		cfg := goldenConfig(SchemeNetRSCache)
		results, merged, err := RunRepeatedWith(cfg, seeds, RunOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resultDigest(results, merged), goldenDigests[SchemeNetRSToR.String()]; got != want {
			t.Errorf("zero-budget digest = %#016x, want NetRS-ToR's %#016x", got, want)
		}
		for i, res := range results {
			if res.CacheHits != 0 || res.CacheAdmissions != 0 || res.CacheInvalidations != 0 {
				t.Errorf("seed %d: zero-budget cache recorded activity: %d hits, %d admissions, %d invalidations",
					seeds[i], res.CacheHits, res.CacheAdmissions, res.CacheInvalidations)
			}
		}
	})
}
