package dist

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"netrs/internal/sim"
)

func rng() *sim.RNG { return sim.NewRNG(12345) }

func TestExponentialMeanAndValidation(t *testing.T) {
	e, err := NewExponential(4, rng())
	if err != nil {
		t.Fatal(err)
	}
	if e.Mean() != 4 {
		t.Fatalf("Mean() = %v", e.Mean())
	}
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := e.Draw()
		if v < 0 {
			t.Fatalf("negative draw %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-4) > 0.1 {
		t.Fatalf("empirical mean %v, want ~4", mean)
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewExponential(bad, rng()); err == nil {
			t.Errorf("NewExponential(%v) accepted", bad)
		}
	}
}

func TestExponentialDrawTime(t *testing.T) {
	e, err := NewExponential(float64(4*sim.Millisecond), rng())
	if err != nil {
		t.Fatal(err)
	}
	sum := sim.Time(0)
	const n = 100000
	for i := 0; i < n; i++ {
		sum += e.DrawTime()
	}
	mean := float64(sum) / n
	if math.Abs(mean-float64(4*sim.Millisecond)) > float64(100*sim.Microsecond) {
		t.Fatalf("mean draw %v ns, want ~4ms", mean)
	}
}

func TestPoissonRate(t *testing.T) {
	p, err := NewPoisson(1000, rng()) // 1000/s -> mean gap 1ms
	if err != nil {
		t.Fatal(err)
	}
	var total sim.Time
	const n = 100000
	for i := 0; i < n; i++ {
		d := p.NextInterarrival()
		if d < 1 {
			t.Fatalf("interarrival %d < 1", d)
		}
		total += d
	}
	mean := float64(total) / n
	if math.Abs(mean-float64(sim.Millisecond)) > float64(50*sim.Microsecond) {
		t.Fatalf("mean interarrival %v ns, want ~1ms", mean)
	}
	if _, err := NewPoisson(0, rng()); err == nil {
		t.Error("NewPoisson(0) accepted")
	}
	// At 10^12 arrivals/s the mean gap is 1 ps: every draw rounds below
	// one tick and is clamped to 1, keeping arrivals strictly ordered.
	fast, err := NewPoisson(1e12, rng())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if d := fast.NextInterarrival(); d != 1 {
			t.Fatalf("sub-tick interarrival = %d, want 1", d)
		}
	}
}

func TestBimodalModes(t *testing.T) {
	b, err := NewBimodal(4, 3, rng())
	if err != nil {
		t.Fatal(err)
	}
	slow, fast := b.Modes()
	if slow != 4 || math.Abs(fast-4.0/3.0) > 1e-12 {
		t.Fatalf("modes = %v, %v", slow, fast)
	}
	counts := map[float64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[b.Draw()]++
	}
	if len(counts) != 2 {
		t.Fatalf("bimodal produced %d distinct values", len(counts))
	}
	for v, c := range counts {
		if c < n*45/100 || c > n*55/100 {
			t.Fatalf("mode %v drawn %d of %d times, want ~half", v, c, n)
		}
	}
	if b.Draws() != n {
		t.Fatalf("Draws() = %d", b.Draws())
	}
	if _, err := NewBimodal(-1, 3, rng()); err == nil {
		t.Error("negative base accepted")
	}
	if _, err := NewBimodal(1, 0.5, rng()); err == nil {
		t.Error("range < 1 accepted")
	}
}

func TestZipfValidation(t *testing.T) {
	for _, c := range []struct {
		n     uint64
		theta float64
	}{{1, 0.99}, {100, 0}, {100, -0.5}, {100, math.NaN()}, {100, math.Nextafter(MaxTheta, 2)}, {100, 1.5}, {100, math.Inf(1)}} {
		if _, err := NewZipf(c.n, c.theta, rng()); err == nil {
			t.Errorf("NewZipf(%d, %v) accepted", c.n, c.theta)
		}
	}
	// The heavy-skew regime [1, MaxTheta] is in-domain since the cache tier.
	for _, theta := range []float64{1, 1.1, MaxTheta} {
		if _, err := NewZipf(100, theta, rng()); err != nil {
			t.Errorf("NewZipf(100, %v) rejected: %v", theta, err)
		}
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	const n = 1000
	z, err := NewZipf(n, 0.99, rng())
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	const draws = 500000
	for i := 0; i < draws; i++ {
		k := z.Draw()
		if k >= n {
			t.Fatalf("draw %d out of range", k)
		}
		counts[k]++
	}
	// Rank 0 must dominate, and popularity must decay with rank.
	if counts[0] < counts[10] || counts[0] < counts[100] {
		t.Fatalf("rank 0 (%d) not dominant vs rank10=%d rank100=%d", counts[0], counts[10], counts[100])
	}
	top20 := 0
	for i := 0; i < n/5; i++ {
		top20 += counts[i]
	}
	if frac := float64(top20) / draws; frac < 0.60 {
		t.Fatalf("top 20%% of keys got %.2f of traffic, want heavy skew", frac)
	}
	// Theoretical check for rank 0: p(0) = 1/zeta(n, theta).
	want := 1 / zeta(n, 0.99)
	got := float64(counts[0]) / draws
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("p(rank0) = %v, want ~%v", got, want)
	}
}

func TestZipfScrambledSpreadsHotKeys(t *testing.T) {
	const n = 1 << 14
	z, err := NewZipf(n, 0.99, rng())
	if err != nil {
		t.Fatal(err)
	}
	z.Scrambled()
	counts := make(map[uint64]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		k := z.Draw()
		if k >= n {
			t.Fatalf("scrambled draw %d out of range", k)
		}
		counts[k]++
	}
	// The hottest keys should not be clustered near 0 once scrambled.
	type kv struct {
		k uint64
		c int
	}
	var all []kv
	for k, c := range counts {
		all = append(all, kv{k, c})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].c > all[j].c })
	low := 0
	for _, e := range all[:10] {
		if e.k < n/10 {
			low++
		}
	}
	if low > 5 {
		t.Fatalf("%d of top-10 hot keys landed in the lowest decile; scrambling ineffective", low)
	}
}

// TestZipfHeavySkewExactVsSampled compares the rejection-inversion branch
// against exactly computed rank probabilities p(k) = k^-theta / zeta(n,
// theta) at every supported heavy exponent.
func TestZipfHeavySkewExactVsSampled(t *testing.T) {
	const n = 100
	const draws = 500000
	for _, theta := range []float64{1, 1.05, 1.1, 1.2} {
		z, err := NewZipf(n, theta, rng())
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			k := z.Draw()
			if k >= n {
				t.Fatalf("theta=%v: draw %d out of range", theta, k)
			}
			counts[k]++
		}
		zn := zetaExact(1, n, theta)
		// The top ranks carry enough mass for a tight relative check; the
		// tail is verified in aggregate.
		tailWant, tailGot := 0.0, 0.0
		for r := 0; r < n; r++ {
			want := math.Pow(float64(r+1), -theta) / zn
			got := float64(counts[r]) / draws
			if r < 10 {
				if math.Abs(got-want)/want > 0.05 {
					t.Fatalf("theta=%v rank %d: sampled %v, exact %v", theta, r, got, want)
				}
				continue
			}
			tailWant += want
			tailGot += got
		}
		if math.Abs(tailGot-tailWant)/tailWant > 0.05 {
			t.Fatalf("theta=%v tail mass: sampled %v, exact %v", theta, tailGot, tailWant)
		}
	}
}

func TestZipfHeavySkewScrambledRange(t *testing.T) {
	const n = 1 << 14
	z, err := NewZipf(n, 1.1, rng())
	if err != nil {
		t.Fatal(err)
	}
	z.Scrambled()
	for i := 0; i < 100000; i++ {
		if k := z.Draw(); k >= n {
			t.Fatalf("scrambled heavy draw %d out of range", k)
		}
	}
}

// TestZipfThetaBelowOneBitIdentical pins the theta<1 draw sequences: the
// heavy-skew branch must not perturb the YCSB path by so much as one RNG
// consumption. The digests were recorded before the rejection sampler
// landed.
func TestZipfThetaBelowOneBitIdentical(t *testing.T) {
	want := map[float64]uint64{
		0.6:  0x1c8082a51b1f6fb6,
		0.9:  0xbffac91ebb9c08cd,
		0.99: 0x370f1c0fe287e562,
	}
	for _, theta := range []float64{0.6, 0.9, 0.99} {
		z, err := NewZipf(1<<20, theta, sim.NewRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		z.Scrambled()
		h := fnv.New64a()
		var buf [8]byte
		for i := 0; i < 10000; i++ {
			binary.LittleEndian.PutUint64(buf[:], z.Draw())
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != want[theta] {
			t.Errorf("theta=%v draw digest %#x, want %#x", theta, got, want[theta])
		}
	}
}

func TestZetaLargeNMatchesExact(t *testing.T) {
	// The Euler–Maclaurin branch engages above 2^16; verify it against an
	// exact sum at a size where both are computable.
	const n = 1 << 20
	for _, theta := range []float64{0.99, 1} {
		approx := zeta(n, theta)
		exact := zetaExact(1, n, theta)
		if rel := math.Abs(approx-exact) / exact; rel > 1e-9 {
			t.Fatalf("zeta(%v) approx relative error %v", theta, rel)
		}
	}
}

func TestZipfHugeKeySpaceConstructsFast(t *testing.T) {
	z, err := NewZipf(100_000_000, 0.99, rng())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if k := z.Draw(); k >= z.N() {
			t.Fatalf("draw %d out of range", k)
		}
	}
	if z.Theta() != 0.99 {
		t.Fatalf("Theta() = %v", z.Theta())
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a, err := NewAlias(weights, rng())
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 4 {
		t.Fatalf("Len() = %d", a.Len())
	}
	counts := make([]int, 4)
	const n = 400000
	for i := 0; i < n; i++ {
		counts[a.Draw()]++
	}
	for i, w := range weights {
		want := w / 10 * n
		if math.Abs(float64(counts[i])-want)/want > 0.05 {
			t.Fatalf("outcome %d count %d, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestAliasValidation(t *testing.T) {
	cases := [][]float64{{}, {0, 0}, {-1, 2}, {math.NaN()}, {math.Inf(1)}}
	for _, w := range cases {
		if _, err := NewAlias(w, rng()); err == nil {
			t.Errorf("NewAlias(%v) accepted", w)
		}
	}
}

func TestAliasSingleOutcome(t *testing.T) {
	a, err := NewAlias([]float64{5}, rng())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a.Draw() != 0 {
			t.Fatal("single-outcome alias drew nonzero")
		}
	}
}

// Property: alias sampling preserves relative frequencies for arbitrary
// weight vectors.
func TestAliasProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 32 {
			return true
		}
		weights := make([]float64, len(raw))
		total := 0.0
		for i, r := range raw {
			weights[i] = float64(r)
			total += weights[i]
		}
		if total == 0 {
			return true
		}
		a, err := NewAlias(weights, rng())
		if err != nil {
			return false
		}
		const n = 100000
		counts := make([]int, len(weights))
		for i := 0; i < n; i++ {
			counts[a.Draw()]++
		}
		for i, w := range weights {
			want := w / total
			got := float64(counts[i]) / n
			if math.Abs(got-want) > 0.02 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSkewedWeights(t *testing.T) {
	w, err := SkewedWeights(500, 0.2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 500 {
		t.Fatalf("len = %d", len(w))
	}
	hotSum := 0.0
	for i := 0; i < 100; i++ {
		hotSum += w[i]
	}
	if math.Abs(hotSum-0.9) > 1e-9 {
		t.Fatalf("hot 20%% carries %v of weight, want 0.9", hotSum)
	}
	total := 0.0
	for _, v := range w {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("weights sum to %v", total)
	}
	if _, err := SkewedWeights(0, 0.2, 0.9); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := SkewedWeights(10, 0, 0.9); err == nil {
		t.Error("hot=0 accepted")
	}
	if _, err := SkewedWeights(10, 0.2, 1.5); err == nil {
		t.Error("demand>1 accepted")
	}
}

func TestSkewedWeightsAllHot(t *testing.T) {
	w, err := SkewedWeights(10, 1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range w {
		if math.Abs(v-0.1) > 1e-12 {
			t.Fatalf("all-hot weights = %v, want uniform", w)
		}
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	z, err := NewZipf(100_000_000, 0.99, rng())
	if err != nil {
		b.Fatal(err)
	}
	z.Scrambled()
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += z.Draw()
	}
	_ = sink
}

func BenchmarkAliasDraw(b *testing.B) {
	w, _ := SkewedWeights(500, 0.2, 0.9)
	a, err := NewAlias(w, rng())
	if err != nil {
		b.Fatal(err)
	}
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += a.Draw()
	}
	_ = sink
}
