package netrs

// Golden end-to-end runs. These tests pin the bit-exact output of full
// experiment runs for fixed configurations and seeds, so that performance
// work on the engine hot path (agenda layout, pooled packets, closure-free
// scheduling) can prove it changed *nothing* about simulation results: any
// reordering of events, any RNG-stream drift, any float addition-order
// change shows up as a moved line of a golden file.
//
// Each run is rendered by golden.Dump, one Result field per line, and
// compared with testdata/golden/<test name>.txt. A failing check prints
// the fields that moved and the command that re-pins the file; a golden
// file must never change without a deliberate, documented semantic
// change to the simulation itself.

import (
	"os"
	"path/filepath"
	"testing"

	"netrs/internal/golden"
)

// goldenConfig is a small but fully-featured experiment: NetRS control
// plane, fluctuating servers, C3 timers, warmup, and enough requests that
// every hot path (forwarding, selection, response cloning, cancellation)
// runs many times — while keeping the whole matrix under a few seconds.
func goldenConfig(scheme Scheme) Config {
	cfg := DefaultConfig()
	cfg.FatTreeK = 6
	cfg.Servers = 18
	cfg.Clients = 30
	cfg.Generators = 12
	cfg.Requests = 2500
	cfg.Scheme = scheme
	if scheme == SchemeCliRSR95 {
		cfg.CancelDuplicates = true
	}
	return cfg
}

// repeatedRun is what one RunRepeated call returns, as golden.Dump
// renders it.
type repeatedRun struct {
	Runs   []Result
	Merged Summary
}

// runDump runs cfg over seeds and renders the per-seed Results and the
// merged summary.
func runDump(t *testing.T, cfg Config, seeds []uint64, opts RunOptions) ([]Result, string) {
	t.Helper()
	results, merged, err := RunRepeated(cfg, seeds, opts)
	if err != nil {
		t.Fatalf("shards %d, parallelism %d: %v", cfg.Shards, opts.Parallelism, err)
	}
	return results, golden.Dump(repeatedRun{results, merged})
}

// variant is one way to execute a golden run: the shard count and the
// trial parallelism.
type variant struct{ shards, parallelism int }

// byParallelism runs on one partition at Parallelism 1, 2 and auto.
var byParallelism = []variant{{0, 1}, {0, 2}, {0, 0}}

// checkRuns pins cfg's run over seeds under the first variant against the
// golden file name, and its runs under the other variants against that
// one. It returns the first variant's results.
func checkRuns(t *testing.T, name string, cfg Config, seeds []uint64, variants ...variant) []Result {
	t.Helper()
	var first []Result
	var want string
	for i, v := range variants {
		cfg.Shards = v.shards
		results, got := runDump(t, cfg, seeds, RunOptions{Parallelism: v.parallelism})
		switch {
		case i == 0:
			first, want = results, got
			golden.Check(t, name, got)
		case got != want:
			t.Errorf("%+v differs from %+v:\n%s", v, variants[0], golden.Diff(want, got))
		}
	}
	return first
}

// TestGoldenSummaryDigest proves that, for a fixed config and seed set, the
// full Result stream is bit-identical to the pinned one at every
// Parallelism level.
func TestGoldenSummaryDigest(t *testing.T) {
	for _, scheme := range Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			checkRuns(t, t.Name(), goldenConfig(scheme), []uint64{1, 2, 3}, byParallelism...)
		})
	}
}

// TestCacheDisabledIsBitIdentical pins that the cache tier is invisible
// until configured on. Every paper scheme, with the cache tier compiled in
// and its config absent, reproduces its TestGoldenSummaryDigest file and
// records no cache activity. A zero-budget NetRS+Cache IS NetRS-ToR: the
// inert caches never hit, no ToR enrolls for invalidations, and no extra
// RNG is consumed, so its Results differ from NetRS-ToR's in the Scheme
// field and in CacheMisses, which counts the requests that consulted a
// cache. TestGoldenShardDigest pins the cache schemes' own runs.
func TestCacheDisabledIsBitIdentical(t *testing.T) {
	for _, scheme := range Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			results, got := runDump(t, goldenConfig(scheme), []uint64{1, 2, 3}, RunOptions{Parallelism: 1})
			for i, res := range results {
				if res.CacheHits != 0 || res.CacheMisses != 0 || res.CacheAdmissions != 0 ||
					res.CacheEvictions != 0 || res.CacheInvalidations != 0 {
					t.Errorf("run %d: cache recorded activity with no cache configured: %+v", i, res)
				}
			}
			golden.Check(t, "TestGoldenSummaryDigest/"+scheme.String(), got)
		})
	}
	t.Run("NetRS+Cache/zero-budget", func(t *testing.T) {
		t.Parallel()
		results, merged, err := RunRepeated(goldenConfig(SchemeNetRSCache), []uint64{1, 2, 3}, RunOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := range results {
			results[i].Scheme = SchemeNetRSToR
			results[i].CacheMisses = 0
		}
		golden.Check(t, "TestGoldenSummaryDigest/NetRS-ToR", golden.Dump(repeatedRun{results, merged}))
	})
}

// TestGoldenDigestSensitivity guards the golden files themselves: a
// different seed must render differently, or a run that ignores its seed
// would pass unnoticed.
func TestGoldenDigestSensitivity(t *testing.T) {
	cfg := goldenConfig(SchemeNetRSToR)
	_, a := runDump(t, cfg, []uint64{1}, RunOptions{Parallelism: 1})
	_, b := runDump(t, cfg, []uint64{4}, RunOptions{Parallelism: 1})
	if a == b {
		t.Fatal("the dump is not sensitive to the seed")
	}
}

// checkDistinctGoldens fails unless the golden files matching glob under
// testdata/golden are at least two and pairwise different.
func checkDistinctGoldens(t *testing.T, glob string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "golden", glob))
	if err != nil || len(files) < 2 {
		t.Fatalf("%s: %d golden files (%v)", glob, len(files), err)
	}
	seen := map[string]string{}
	for _, file := range files {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[string(text)]; dup {
			t.Errorf("%s and %s are identical", prev, file)
		}
		seen[string(text)] = file
	}
}
