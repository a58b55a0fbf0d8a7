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

// maxAllocsPerRequest is the steady-state allocation budget of one
// request. The request path reuses pooled packets and pending records,
// queues requests inline in the servers' and accelerators' rings, ranks
// and lists duplicate candidates into scratch buffers and keeps no
// per-request map entries; what is left is the pools' and rings' growth
// to the longer run's high-water marks, about a hundredth of an
// allocation per request or less. A per-request allocation anywhere on
// the path reads as 1 or more, and one on a tenth of the requests as 0.1.
const maxAllocsPerRequest = 0.02

// checkAllocsPerRequest fails t if a request of scheme, with cross-server
// cancellation as given, costs more than maxAllocsPerRequest. The cache
// schemes run with 16 KiB per ToR and 5% writes, so admission, eviction
// and invalidation all run. Their runs are ten times longer: each ToR's
// admission doorkeeper grows to at least 1024 keys before its first
// wholesale clear, and the shorter runs would measure that one-time fill
// rather than the steady state.
func checkAllocsPerRequest(t *testing.T, scheme Scheme, cancel bool) {
	t.Helper()
	cfg := smallConfig(scheme)
	cfg.CancelDuplicates = cancel
	if cfg.IsCacheScheme() {
		cfg.CacheBytes = 16 << 10
		cfg.WriteFraction = 0.05
		cfg.Requests *= 10
	}
	perReq := allocsPerRequest(t, cfg)
	t.Logf("%s cancel %v: %.4f allocations per request", scheme, cancel, perReq)
	if perReq > maxAllocsPerRequest {
		t.Errorf("%s (cancel %v) allocates %.4f times per request, want at most %v",
			scheme, cancel, perReq, maxAllocsPerRequest)
	}
}

// TestNetRSAllocsPerRequest caps the heap allocations a NetRS-ILP request
// costs.
func TestNetRSAllocsPerRequest(t *testing.T) {
	checkAllocsPerRequest(t, SchemeNetRSILP, false)
}

// TestCliRSR95AllocsPerRequest caps the same cost for CliRS-R95, with and
// without cross-server cancellation. Its duplicate timers hold their
// request records until they fire, and a withdrawn duplicate's packet
// returns to its pool, so neither grows with the request count.
func TestCliRSR95AllocsPerRequest(t *testing.T) {
	for _, cancel := range []bool{false, true} {
		checkAllocsPerRequest(t, SchemeCliRSR95, cancel)
	}
}

// TestAllocsPerRequest caps the same cost under every other scheme, the
// cache tier's included, with cross-server cancellation off and on. Only
// CliRS-R95 duplicates, so cancellation changes nothing elsewhere; the
// rows run anyway to keep it so.
func TestAllocsPerRequest(t *testing.T) {
	for _, scheme := range AllSchemes() {
		if scheme == SchemeNetRSILP || scheme == SchemeCliRSR95 {
			continue
		}
		for _, cancel := range []bool{false, true} {
			checkAllocsPerRequest(t, scheme, cancel)
		}
	}
}
