package cluster

import (
	"runtime"
	"testing"
)

// mallocsOfRun returns the heap allocations one Run of cfg performs.
func mallocsOfRun(t *testing.T, cfg Config) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// allocsPerRequest returns the heap allocations one request of cfg costs
// once the pools are warm. Two runs that differ only in request count
// share their set-up, so the difference of their allocation counts over
// the difference of their requests is the per-request cost.
func allocsPerRequest(t *testing.T, cfg Config) float64 {
	t.Helper()
	long := cfg
	long.Requests *= 3
	a := mallocsOfRun(t, cfg)
	b := mallocsOfRun(t, long)
	return (float64(b) - float64(a)) / float64(long.Requests-cfg.Requests)
}

// TestNetRSAllocsPerRequest caps the heap allocations a NetRS-ILP request
// costs. The request path reuses pooled packets, contexts and server
// records, ranks into a scratch buffer and keeps no per-request map
// entries; what is left (about 0.16 per request) is the server queue's
// entries and the pools' growth. A per-request allocation anywhere on the
// path reads as 1 or more.
func TestNetRSAllocsPerRequest(t *testing.T) {
	if perReq := allocsPerRequest(t, smallConfig(SchemeNetRSILP)); perReq > 0.5 {
		t.Fatalf("NetRS-ILP allocates %.3f times per request, want at most 0.5", perReq)
	}
}

// TestCliRSR95AllocsPerRequest caps the same cost for CliRS-R95, with and
// without cross-server cancellation. Its duplicate timers hold their
// request records until they fire, and a withdrawn duplicate's server
// record returns to its pool, so neither grows with the request count.
// What is left is the server queue's entries, the duplicates' candidate
// lists and the ticket map.
func TestCliRSR95AllocsPerRequest(t *testing.T) {
	for _, cancel := range []bool{false, true} {
		cfg := smallConfig(SchemeCliRSR95)
		cfg.CancelDuplicates = cancel
		perReq := allocsPerRequest(t, cfg)
		t.Logf("cancel %v: %.3f allocations per request", cancel, perReq)
		if perReq > 0.5 {
			t.Errorf("CliRS-R95 (cancel %v) allocates %.3f times per request, want at most 0.5", cancel, perReq)
		}
	}
}
