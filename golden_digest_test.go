package netrs

// Golden end-to-end digests. These tests pin the bit-exact output of full
// experiment runs for fixed configurations and seeds, so that performance
// work on the engine hot path (agenda layout, pooled packets, closure-free
// scheduling) can prove it changed *nothing* about simulation results: any
// reordering of events, any RNG-stream drift, any float addition-order
// change shows up as a digest mismatch.
//
// The constants below were captured from the pre-arena pointer-heap engine
// (PR 3); they must never change without a deliberate, documented semantic
// change to the simulation itself.

import (
	"hash/fnv"
	"math"
	"testing"
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

// mix64 folds a uint64 into the digest.
func mix64(h interface{ Write([]byte) (int, error) }, v uint64) {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
}

// resultDigest hashes every numeric field of a Result bit for bit.
func resultDigest(results []Result, merged Summary) uint64 {
	h := fnv.New64a()
	f := func(v float64) { mix64(h, math.Float64bits(v)) }
	u := func(v uint64) { mix64(h, v) }
	sum := func(s Summary) {
		u(uint64(s.Count))
		f(s.MeanMs)
		f(s.P95Ms)
		f(s.P99Ms)
		f(s.P999Ms)
	}
	for _, r := range results {
		sum(r.Summary)
		u(uint64(r.Emitted))
		u(uint64(r.Completed))
		u(uint64(r.RSNodes))
		u(uint64(r.DegradedGroups))
		u(r.RedundantSent)
		u(r.CancelledDuplicates)
		u(r.DegradedResponses)
		u(r.OperatorSelections)
		u(uint64(r.SimulatedSpan))
		f(r.MaxAccelUtilization)
		f(r.ServerLoadCV)
		f(r.QueueCVMean)
	}
	sum(merged)
	return h.Sum64()
}

// goldenDigests holds the pinned pre-refactor digests per scheme. The
// CliRS-R95 row, the one run with cross-server cancellation, was re-pinned
// when a ticket stopped cancelling a request already in service (that
// request is now answered to a live context, not counted as cancelled).
var goldenDigests = map[string]uint64{
	"CliRS":     0x85632d3e91b053bc,
	"CliRS-R95": 0xc2bd17c60da3d5aa,
	"NetRS-ToR": 0x2100c67f530098f2,
	"NetRS-ILP": 0xb31c17626d651157,
}

// TestGoldenSummaryDigest proves that, for a fixed config and seed set, the
// full Result stream is bit-identical to the pre-refactor engine at every
// Parallelism level.
func TestGoldenSummaryDigest(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			cfg := goldenConfig(scheme)
			want := goldenDigests[scheme.String()]
			for _, par := range []int{1, 2, 0} {
				results, merged, err := RunRepeatedWith(cfg, seeds, RunOptions{Parallelism: par})
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				got := resultDigest(results, merged)
				if got != want {
					t.Errorf("parallelism %d: digest = %#016x, want %#016x", par, got, want)
				}
			}
		})
	}
}

// TestGoldenDigestSensitivity guards the digest itself: a different seed
// set must produce a different digest, or the golden test proves nothing.
func TestGoldenDigestSensitivity(t *testing.T) {
	cfg := goldenConfig(SchemeNetRSToR)
	a, am, err := RunRepeatedWith(cfg, []uint64{1}, RunOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, bm, err := RunRepeatedWith(cfg, []uint64{4}, RunOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resultDigest(a, am) == resultDigest(b, bm) {
		t.Fatal("digest is not sensitive to the seed")
	}
}
