package stats

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"netrs/internal/dist"
	"netrs/internal/sim"
)

func TestRecorderEmpty(t *testing.T) {
	r := NewRecorder(0)
	if _, err := r.Mean(); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("Mean on empty = %v", err)
	}
	if _, err := r.Percentile(50); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("Percentile on empty = %v", err)
	}
	if _, err := r.Summarize(); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("Summarize on empty = %v", err)
	}
}

func TestRecorderExactStats(t *testing.T) {
	r := NewRecorder(10)
	for i := 1; i <= 100; i++ {
		r.Record(sim.Time(i))
	}
	mean, err := r.Mean()
	if err != nil || mean != 50 {
		t.Fatalf("mean = %v, %v; want 50", mean, err)
	}
	for _, c := range []struct {
		p    float64
		want sim.Time
	}{{1, 1}, {50, 50}, {95, 95}, {99, 99}, {100, 100}} {
		got, err := r.Percentile(c.p)
		if err != nil || got != c.want {
			t.Fatalf("p%v = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	if mx, _ := r.Max(); mx != 100 {
		t.Fatalf("max = %v", mx)
	}
	if r.Count() != 100 {
		t.Fatalf("count = %d", r.Count())
	}
}

func TestRecorderPercentileValidation(t *testing.T) {
	r := NewRecorder(1)
	r.Record(1)
	for _, p := range []float64{0, -5, 101, math.NaN()} {
		if _, err := r.Percentile(p); err == nil {
			t.Errorf("Percentile(%v) accepted", p)
		}
	}
}

func TestRecorderInterleavedRecordAndQuery(t *testing.T) {
	r := NewRecorder(0)
	r.Record(3)
	r.Record(1)
	if p, _ := r.Percentile(100); p != 3 {
		t.Fatalf("p100 = %v", p)
	}
	r.Record(2) // must invalidate sort cache
	if p, _ := r.Percentile(50); p != 2 {
		t.Fatalf("p50 after append = %v", p)
	}
}

func TestSummarize(t *testing.T) {
	r := NewRecorder(0)
	for i := 1; i <= 1000; i++ {
		r.Record(sim.Time(i) * sim.Millisecond)
	}
	s, err := r.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Count != 1000 || s.MeanMs != 500.5 || s.P95Ms != 950 || s.P99Ms != 990 || s.P999Ms != 999 {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

func TestMergeSummaries(t *testing.T) {
	a := Summary{Count: 10, MeanMs: 2, P95Ms: 4, P99Ms: 6, P999Ms: 8}
	b := Summary{Count: 20, MeanMs: 4, P95Ms: 8, P99Ms: 10, P999Ms: 12}
	m, err := MergeSummaries([]Summary{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != 30 || m.MeanMs != 3 || m.P95Ms != 6 || m.P99Ms != 8 || m.P999Ms != 10 {
		t.Fatalf("merged = %+v", m)
	}
	if _, err := MergeSummaries(nil); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("merge of none = %v", err)
	}
}

// Property: recorder percentiles equal brute-force nearest-rank
// percentiles.
func TestRecorderPercentileProperty(t *testing.T) {
	f := func(raw []uint32, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		p := float64(pRaw%100) + 1 // 1..100
		r := NewRecorder(len(raw))
		vals := make([]sim.Time, len(raw))
		for i, v := range raw {
			vals[i] = sim.Time(v)
			r.Record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		// Same float-artifact guard as the implementation: p/100·n may
		// land an ulp above an exact integer rank.
		rank := int(math.Ceil(p/100*float64(len(vals)) - 1e-9))
		if rank < 1 {
			rank = 1
		}
		want := vals[rank-1]
		got, err := r.Percentile(p)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderMergeExact checks merging two recorders equals recording
// their union.
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
	a.Merge(b)
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

// TestRecorderMergeEmpty checks empty operands are no-ops.
func TestRecorderMergeEmpty(t *testing.T) {
	r := NewRecorder(0)
	r.Record(5)
	r.Merge(nil)
	r.Merge(NewRecorder(0))
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

func TestEWMA(t *testing.T) {
	if _, err := NewEWMA(0); err == nil {
		t.Fatal("alpha 0 accepted")
	}
	if _, err := NewEWMA(1.5); err == nil {
		t.Fatal("alpha > 1 accepted")
	}
	e, err := NewEWMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if e.Value() != 0 {
		t.Fatal("initial value nonzero")
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Fatalf("first observation = %v, want 10", e.Value())
	}
	e.Observe(20)
	if e.Value() != 15 {
		t.Fatalf("after 10,20 = %v, want 15", e.Value())
	}
	if e.Observations() != 2 {
		t.Fatalf("observations = %d", e.Observations())
	}
	e.Reset()
	if e.Value() != 0 || e.Observations() != 0 {
		t.Fatal("reset failed")
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e, _ := NewEWMA(0.1)
	for i := 0; i < 200; i++ {
		e.Observe(7)
	}
	if math.Abs(e.Value()-7) > 1e-9 {
		t.Fatalf("value = %v, want 7", e.Value())
	}
}

func TestP2QuantileValidation(t *testing.T) {
	for _, q := range []float64{0, 1, -0.5, math.NaN()} {
		if _, err := NewP2Quantile(q); err == nil {
			t.Errorf("NewP2Quantile(%v) accepted", q)
		}
	}
}

func TestP2QuantileSmallN(t *testing.T) {
	p, err := NewP2Quantile(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if p.Value() != 0 {
		t.Fatal("empty estimator nonzero")
	}
	p.Observe(5)
	if p.Value() != 5 {
		t.Fatalf("single sample value = %v", p.Value())
	}
	p.Observe(1)
	p.Observe(3)
	v := p.Value()
	if v < 1 || v > 5 {
		t.Fatalf("small-n value %v outside sample range", v)
	}
}

func TestP2QuantileAccuracy(t *testing.T) {
	for _, q := range []float64{0.5, 0.95, 0.99} {
		p, err := NewP2Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		r := sim.NewRNG(17)
		exp, err := dist.NewExponential(4, r)
		if err != nil {
			t.Fatal(err)
		}
		var samples []float64
		const n = 50000
		for i := 0; i < n; i++ {
			v := exp.Draw()
			p.Observe(v)
			samples = append(samples, v)
		}
		sort.Float64s(samples)
		exact := samples[int(math.Ceil(q*float64(n)))-1]
		got := p.Value()
		if rel := math.Abs(got-exact) / exact; rel > 0.10 {
			t.Fatalf("q=%v estimate %v vs exact %v: rel err %v", q, got, exact, rel)
		}
		if p.Observations() != n {
			t.Fatalf("observations = %d", p.Observations())
		}
	}
}

func TestP2QuantileMonotoneInput(t *testing.T) {
	p, _ := NewP2Quantile(0.95)
	for i := 1; i <= 10000; i++ {
		p.Observe(float64(i))
	}
	v := p.Value()
	if v < 9000 || v > 10000 {
		t.Fatalf("p95 of 1..10000 estimated %v", v)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.CV() != 0 || w.Count() != 0 {
		t.Fatal("zero Welford not zero")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Observe(v)
	}
	if w.Count() != 8 {
		t.Fatalf("count = %d", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", w.Mean())
	}
	if math.Abs(w.Variance()-4) > 1e-12 {
		t.Fatalf("variance = %v, want 4", w.Variance())
	}
	if math.Abs(w.StdDev()-2) > 1e-12 {
		t.Fatalf("stddev = %v, want 2", w.StdDev())
	}
	if math.Abs(w.CV()-0.4) > 1e-12 {
		t.Fatalf("cv = %v, want 0.4", w.CV())
	}
}

// Property: Welford matches the two-pass mean/variance on arbitrary data.
func TestWelfordProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, v := range raw {
			w.Observe(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		varSum := 0.0
		for _, v := range raw {
			d := float64(v) - mean
			varSum += d * d
		}
		variance := varSum / float64(len(raw))
		return math.Abs(w.Mean()-mean) < 1e-6 && math.Abs(w.Variance()-variance) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRecorderRecord(b *testing.B) {
	r := NewRecorder(b.N)
	for i := 0; i < b.N; i++ {
		r.Record(sim.Time(i))
	}
}

func BenchmarkP2Observe(b *testing.B) {
	p, err := NewP2Quantile(0.95)
	if err != nil {
		b.Fatal(err)
	}
	r := sim.NewRNG(1)
	for i := 0; i < b.N; i++ {
		p.Observe(r.Float64())
	}
}
