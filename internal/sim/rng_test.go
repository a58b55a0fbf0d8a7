package sim

import (
	"math"
	"testing"
)

// TestMix64Pinned pins the SplitMix64 output function: cache item sizes,
// Zipf rank scrambling and ECMP flow hashes are all functions of it, so a
// changed output would move every golden file. Mix64(0) is the first
// output of the reference SplitMix64 generator seeded with 0.
func TestMix64Pinned(t *testing.T) {
	for _, c := range []struct{ in, want uint64 }{
		{0x0, 0xe220a8397b1dcdaf},
		{0x1, 0x910a2dec89025cc1},
		{0x2, 0x975835de1c9756ce},
		{0x3039, 0x22118258a9d111a0},
		{0x8000000000000000, 0x481ec0a212a9f3db},
		{0xffffffffffffffff, 0xe4d971771b652c20},
	} {
		if got := Mix64(c.in); got != c.want {
			t.Errorf("Mix64(%#x) = %#x, want %#x", c.in, got, c.want)
		}
		if next, out := splitMix64(c.in); next != c.in+0x9e3779b97f4a7c15 || out != c.want {
			t.Errorf("splitMix64(%#x) = (%#x, %#x), want output %#x", c.in, next, out, c.want)
		}
	}
}

// TestDeriveSeedDeterministic checks the same (base, trial) pair always
// yields the same seed — the property the parallel executor's determinism
// guarantee rests on.
func TestDeriveSeedDeterministic(t *testing.T) {
	for base := uint64(0); base < 4; base++ {
		for trial := uint64(0); trial < 16; trial++ {
			a := DeriveSeed(base, trial)
			b := DeriveSeed(base, trial)
			if a != b {
				t.Fatalf("DeriveSeed(%d, %d) unstable: %d != %d", base, trial, a, b)
			}
		}
	}
}

// TestDeriveSeedDistinct checks that nearby trials and bases land on
// distinct seeds (collisions among small inputs would correlate repeated
// runs).
func TestDeriveSeedDistinct(t *testing.T) {
	seen := make(map[uint64][2]uint64)
	for base := uint64(0); base < 64; base++ {
		for trial := uint64(0); trial < 64; trial++ {
			s := DeriveSeed(base, trial)
			if prev, dup := seen[s]; dup {
				t.Fatalf("DeriveSeed collision: (%d,%d) and (%d,%d) → %d",
					base, trial, prev[0], prev[1], s)
			}
			seen[s] = [2]uint64{base, trial}
		}
	}
}

// TestDeriveSeedStreamsDiffer checks that generators seeded from adjacent
// trials do not produce identical opening draws.
func TestDeriveSeedStreamsDiffer(t *testing.T) {
	a := NewRNG(DeriveSeed(7, 0))
	b := NewRNG(DeriveSeed(7, 1))
	same := 0
	for i := 0; i < 16; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same == 16 {
		t.Fatal("adjacent trial streams identical")
	}
}

// pearson computes the sample correlation coefficient of two equal-length
// series.
func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	return cov / math.Sqrt(vx*vy)
}

// TestDeriveSeedAdjacentTrialsUncorrelated checks stream independence the
// way the executor relies on it: the first draw of trial t must not
// predict the first draw of trial t+1. A linear dependence here would
// correlate "independent" repetitions of the same experiment.
func TestDeriveSeedAdjacentTrialsUncorrelated(t *testing.T) {
	const n = 1000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = NewRNG(DeriveSeed(42, uint64(i))).Float64()
		ys[i] = NewRNG(DeriveSeed(42, uint64(i+1))).Float64()
	}
	if r := pearson(xs, ys); math.Abs(r) > 0.1 {
		t.Fatalf("first draws of adjacent trials correlate: r = %.4f", r)
	}
}

// TestDeriveSeedAdjacentBasesUncorrelated is the same property across
// base seeds: sweeping seed, seed+1, ... must yield unrelated streams.
func TestDeriveSeedAdjacentBasesUncorrelated(t *testing.T) {
	const n = 1000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = NewRNG(DeriveSeed(uint64(i), 0)).Float64()
		ys[i] = NewRNG(DeriveSeed(uint64(i+1), 0)).Float64()
	}
	if r := pearson(xs, ys); math.Abs(r) > 0.1 {
		t.Fatalf("first draws of adjacent bases correlate: r = %.4f", r)
	}
}

// TestDeriveSeedNoCollisionsAtScale widens the collision check to the
// 10k seeds a large sweep actually derives.
func TestDeriveSeedNoCollisionsAtScale(t *testing.T) {
	seen := make(map[uint64]bool, 100*100)
	for base := uint64(0); base < 100; base++ {
		for trial := uint64(0); trial < 100; trial++ {
			s := DeriveSeed(base, trial)
			if seen[s] {
				t.Fatalf("DeriveSeed collision at (%d,%d) → %d", base, trial, s)
			}
			seen[s] = true
		}
	}
}
