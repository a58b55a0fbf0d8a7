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

// TestNetRSAllocsPerRequest caps the heap allocations a NetRS-ILP request
// costs once the pools are warm. Two runs that differ only in request
// count share their set-up, so the difference of their allocation counts
// over the difference of their requests is the per-request cost. The
// request path reuses pooled packets, contexts and server records, ranks
// into a scratch buffer and keeps no per-request map entries; what is
// left (about 0.16 per request) is the server queue's entries and the
// pools' growth. A per-request allocation anywhere on the path reads as
// 1 or more.
func TestNetRSAllocsPerRequest(t *testing.T) {
	short := smallConfig(SchemeNetRSILP)
	long := short
	long.Requests *= 3
	a := mallocsOfRun(t, short)
	b := mallocsOfRun(t, long)
	perReq := (float64(b) - float64(a)) / float64(long.Requests-short.Requests)
	if perReq > 0.5 {
		t.Fatalf("NetRS-ILP allocates %.3f times per request (runs of %d and %d requests: %d and %d), want at most 0.5",
			perReq, short.Requests, long.Requests, a, b)
	}
}
