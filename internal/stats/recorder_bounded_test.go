package stats

import (
	"math"
	"testing"

	"netrs/internal/sim"
)

// TestBoundedRecorderExactUnderCap checks a bounded recorder is
// bit-identical to an exact one while under its cap.
func TestBoundedRecorderExactUnderCap(t *testing.T) {
	exact := NewRecorder(0)
	bounded := NewBoundedRecorder(0, 1000)
	rng := sim.NewRNG(42)
	for i := 0; i < 1000; i++ {
		v := sim.Time(rng.Intn(1_000_000))
		exact.Record(v)
		bounded.Record(v)
	}
	if !bounded.Exact() {
		t.Fatal("bounded recorder spilled at its cap instead of past it")
	}
	for _, p := range []float64{50, 95, 99, 99.9, 100} {
		e, err1 := exact.Percentile(p)
		b, err2 := bounded.Percentile(p)
		if err1 != nil || err2 != nil || e != b {
			t.Fatalf("p%v: exact %v (%v) vs bounded %v (%v)", p, e, err1, b, err2)
		}
	}
}

// TestBoundedRecorderSpills checks that crossing the cap frees the sample
// slice, keeps the mean exact, and keeps percentiles within the
// histogram's relative-error bound.
func TestBoundedRecorderSpills(t *testing.T) {
	exact := NewRecorder(0)
	bounded := NewBoundedRecorder(0, 500)
	rng := sim.NewRNG(7)
	for i := 0; i < 20000; i++ {
		// Latency-shaped: exponential with a heavy upper tail.
		v := sim.Time(1000 + 1_000_000*rng.ExpFloat64())
		exact.Record(v)
		bounded.Record(v)
	}
	if bounded.Exact() {
		t.Fatal("bounded recorder never spilled")
	}
	if bounded.Count() != exact.Count() {
		t.Fatalf("count %d, want %d", bounded.Count(), exact.Count())
	}
	em, _ := exact.Mean()
	bm, _ := bounded.Mean()
	if em != bm {
		t.Fatalf("spilled mean %v, want exact %v", bm, em)
	}
	eMax, _ := exact.Max()
	bMax, _ := bounded.Max()
	if eMax != bMax {
		t.Fatalf("spilled max %v, want exact %v", bMax, eMax)
	}
	for _, p := range []float64{50, 95, 99, 99.9} {
		e, _ := exact.Percentile(p)
		b, err := bounded.Percentile(p)
		if err != nil {
			t.Fatalf("p%v: %v", p, err)
		}
		rel := math.Abs(float64(b)-float64(e)) / float64(e)
		if rel > 1.0/(1<<boundedSigBits)+1e-12 {
			t.Fatalf("p%v: bounded %v vs exact %v, rel err %.5f", p, b, e, rel)
		}
	}
	sum, err := bounded.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Count != 20000 {
		t.Fatalf("summary count %d", sum.Count)
	}
}

// TestRecorderMergeExact checks merging two exact recorders equals
// recording their union.
func TestRecorderMergeExact(t *testing.T) {
	union := NewRecorder(0)
	a := NewRecorder(0)
	b := NewRecorder(0)
	rng := sim.NewRNG(3)
	for i := 0; i < 800; i++ {
		v := sim.Time(rng.Intn(1 << 20))
		union.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	// Query a first so its samples are in cached-sorted state; Merge must
	// still produce correct results afterwards.
	if _, err := a.Percentile(99); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != union.Count() {
		t.Fatalf("merged count %d, want %d", a.Count(), union.Count())
	}
	for _, p := range []float64{10, 50, 95, 99.9, 100} {
		got, _ := a.Percentile(p)
		want, _ := union.Percentile(p)
		if got != want {
			t.Fatalf("p%v: merged %v, want %v", p, got, want)
		}
	}
	gm, _ := a.Mean()
	wm, _ := union.Mean()
	if gm != wm {
		t.Fatalf("merged mean %v, want %v", gm, wm)
	}
}

// TestRecorderMergeSpilled checks merging works when either side has
// spilled, and that merging pushes a bounded recorder past its cap.
func TestRecorderMergeSpilled(t *testing.T) {
	rng := sim.NewRNG(11)
	mk := func(n, cap int) *Recorder {
		r := NewBoundedRecorder(0, cap)
		for i := 0; i < n; i++ {
			r.Record(sim.Time(1000 + 500_000*rng.ExpFloat64()))
		}
		return r
	}
	// exact + spilled, spilled + exact, spilled + spilled, and an exact
	// merge that overflows the receiver's cap.
	cases := []struct{ a, b *Recorder }{
		{mk(100, 1000), mk(5000, 200)},
		{mk(5000, 200), mk(100, 1000)},
		{mk(5000, 200), mk(5000, 300)},
		{mk(900, 1000), mk(900, 1000)},
	}
	for i, c := range cases {
		wantCount := c.a.Count() + c.b.Count()
		wantSum := c.a.sum + c.b.sum
		if err := c.a.Merge(c.b); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if c.a.Count() != wantCount {
			t.Fatalf("case %d: count %d, want %d", i, c.a.Count(), wantCount)
		}
		m, err := c.a.Mean()
		if err != nil || m != wantSum/sim.Time(wantCount) {
			t.Fatalf("case %d: mean %v (%v)", i, m, err)
		}
		if _, err := c.a.Percentile(99); err != nil {
			t.Fatalf("case %d: p99 after merge: %v", i, err)
		}
		if c.a.Exact() {
			t.Fatalf("case %d: receiver still exact past its cap", i)
		}
	}
}

// TestRecorderMergeEmpty checks empty operands are no-ops.
func TestRecorderMergeEmpty(t *testing.T) {
	r := NewRecorder(0)
	r.Record(5)
	if err := r.Merge(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Merge(NewRecorder(0)); err != nil {
		t.Fatal(err)
	}
	if r.Count() != 1 {
		t.Fatalf("count %d after empty merges", r.Count())
	}
}

// TestSortCacheInvalidatedOnRecord guards the sorted-state cache: a
// Record after a Percentile query must invalidate the cache so later
// queries see the new sample.
func TestSortCacheInvalidatedOnRecord(t *testing.T) {
	r := NewRecorder(0)
	for _, v := range []sim.Time{30, 10, 20} {
		r.Record(v)
	}
	if got, _ := r.Percentile(100); got != 30 {
		t.Fatalf("max = %v", got)
	}
	r.Record(5)
	if got, _ := r.Percentile(25); got != 5 {
		t.Fatalf("p25 after late insert = %v, want 5", got)
	}
	r.Record(40)
	if got, _ := r.Percentile(100); got != 40 {
		t.Fatalf("max after late insert = %v, want 40", got)
	}
}
