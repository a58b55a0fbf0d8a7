package dist

import (
	"fmt"
	"math"

	"netrs/internal/sim"
)

// MaxTheta is the heaviest supported skew exponent. The rejection sampler
// works for any theta >= 1 in principle, but the cache-tier sweeps only
// exercise [1, 1.2] and nothing above has been validated against exact
// frequencies, so the constructor draws the line here.
const MaxTheta = 1.2

// Zipf draws keys in [0, n) with Zipfian popularity: item rank r has
// probability proportional to 1/(r+1)^theta. Two regimes share one
// deterministic RNG stream:
//
//   - theta < 1 (the paper uses theta = 0.99 over 100 million keys), which
//     the textbook rejection-inversion samplers do not cover, uses the YCSB
//     construction: inverse-CDF sampling against the generalized harmonic
//     number zeta(n, theta), with the two-point shortcut for ranks 0 and 1.
//     Exactly one uniform is consumed per draw, so pre-existing theta<1
//     sequences are bit-identical across this split.
//   - theta in [1, MaxTheta] (the cache tier's heavy-skew regime) uses
//     Devroye's rejection-inversion sampler in the numerically hardened
//     form of Apache Commons RNG: H and its inverse are evaluated through
//     log1p/expm1 helpers, so the theta == 1 singularity of the power form
//     is a smooth limit rather than a special case.
//
// Raw ranks are heavily skewed toward small values; Scrambled() wraps the
// generator with a hash so popular keys spread over the key space the way
// consistent hashing expects.
type Zipf struct {
	n        uint64
	theta    float64
	rng      *sim.RNG
	scramble bool

	// YCSB inverse-CDF state (theta < 1). rank1Below is 1 + 0.5^theta,
	// the scaled uniform below which a draw is rank 0 or 1; it is constant
	// per generator, so the pow runs once here rather than on every draw.
	alpha      float64
	zetan      float64
	rank1Below float64
	eta        float64

	// Rejection-inversion state (theta >= 1): cached H(1.5)-1, H(n+0.5)
	// and the acceptance shortcut threshold s.
	hX1 float64
	hN  float64
	s   float64
}

// NewZipf returns a Zipfian generator over [0, n) with exponent theta in
// (0, MaxTheta]. n must be at least 2.
func NewZipf(n uint64, theta float64, rng *sim.RNG) (*Zipf, error) {
	if n < 2 {
		return nil, fmt.Errorf("zipf n=%d: %w", n, ErrInvalidParam)
	}
	if theta <= 0 || theta > MaxTheta || math.IsNaN(theta) {
		return nil, fmt.Errorf("zipf theta=%v (need 0<theta<=%v): %w", theta, MaxTheta, ErrInvalidParam)
	}
	z := &Zipf{n: n, theta: theta, rng: rng}
	if theta >= 1 {
		z.hX1 = z.hIntegral(1.5) - 1
		z.hN = z.hIntegral(float64(n) + 0.5)
		z.s = 2 - z.hIntegralInverse(z.hIntegral(2.5)-z.hPoint(2))
		return z, nil
	}
	zetan := zeta(n, theta)
	zeta2 := zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.zetan = zetan
	z.rank1Below = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan)
	return z, nil
}

// Scrambled makes Draw return ranks scrambled through a 64-bit mixing hash
// (mod n), so that the most popular items land at pseudorandom positions in
// the key space. It returns the receiver for chaining.
func (z *Zipf) Scrambled() *Zipf {
	z.scramble = true
	return z
}

// N returns the size of the key space.
func (z *Zipf) N() uint64 { return z.n }

// Theta returns the skew exponent.
func (z *Zipf) Theta() float64 { return z.theta }

// Draw returns the next key.
func (z *Zipf) Draw() uint64 {
	var rank uint64
	if z.theta >= 1 {
		rank = z.drawRejection()
	} else {
		u := z.rng.Float64()
		uz := u * z.zetan
		switch {
		case uz < 1:
			rank = 0
		case uz < z.rank1Below:
			rank = 1
		default:
			rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
			if rank >= z.n {
				rank = z.n - 1
			}
		}
	}
	if z.scramble {
		return sim.Mix64(rank) % z.n
	}
	return rank
}

// drawRejection samples a rank in [0, n) for theta >= 1 by rejection
// inversion of the integral H(x) = ((x^(1-theta)) - 1) / (1 - theta): a
// uniform over (H(1.5)-1, H(n+0.5)] is inverted to a candidate x, the
// candidate is accepted outright inside the precomputed s-band around its
// integer, and otherwise tested against the exact hat-function gap. Unlike
// the theta<1 branch this consumes a variable number of uniforms per draw
// (the acceptance rate stays above ~70% over [1, MaxTheta]).
func (z *Zipf) drawRejection() uint64 {
	for {
		u := z.hN + z.rng.Float64()*(z.hX1-z.hN)
		x := z.hIntegralInverse(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > float64(z.n) {
			k = float64(z.n)
		}
		if k-x <= z.s || u >= z.hIntegral(k+0.5)-z.hPoint(k) {
			return uint64(k) - 1
		}
	}
}

// hIntegral is H(x) = ((x^(1-theta)) - 1)/(1-theta), evaluated through
// expm1 so theta == 1 degrades smoothly to ln(x).
func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helperExpm1((1-z.theta)*logX) * logX
}

// hPoint is the density term h(x) = x^-theta.
func (z *Zipf) hPoint(x float64) float64 {
	return math.Exp(-z.theta * math.Log(x))
}

// hIntegralInverse is H^-1(x), evaluated through log1p so theta == 1
// degrades smoothly to exp(x).
func (z *Zipf) hIntegralInverse(x float64) float64 {
	t := x * (1 - z.theta)
	if t < -1 {
		// Inaccuracies of floating-point arithmetic can push t slightly
		// below -1, outside the domain of log1p; the limit is x -> 0+.
		t = -1
	}
	return math.Exp(helperLog1p(t) * x)
}

// helperLog1p computes log1p(x)/x with its x -> 0 limit of 1, keeping
// hIntegralInverse finite as theta approaches 1.
func helperLog1p(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x/3)
}

// helperExpm1 computes expm1(x)/x with its x -> 0 limit of 1, keeping
// hIntegral finite as theta approaches 1.
func helperExpm1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x/3)
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
// For small n it sums exactly; for large n it switches to an
// Euler–Maclaurin expansion whose error is far below the sampler's needs,
// so constructing a generator over 10^8 keys stays O(1).
func zeta(n uint64, theta float64) float64 {
	const exactLimit = 1 << 16
	if n <= exactLimit {
		return zetaExact(1, n, theta)
	}
	head := zetaExact(1, exactLimit, theta)
	return head + zetaEulerMaclaurin(exactLimit, n, theta)
}

func zetaExact(from, to uint64, theta float64) float64 {
	sum := 0.0
	for i := from; i <= to; i++ {
		sum += math.Pow(float64(i), -theta)
	}
	return sum
}

// zetaEulerMaclaurin approximates sum_{i=a+1..b} i^-theta via the
// Euler–Maclaurin formula with two correction terms.
func zetaEulerMaclaurin(a, b uint64, theta float64) float64 {
	fa, fb := float64(a), float64(b)
	var integral float64
	if theta == 1 { //lint:floateq exact singularity guard, not a tolerance
		// The power-form antiderivative is singular at theta == 1; the
		// integral of 1/x is the log.
		integral = math.Log(fb / fa)
	} else {
		integral = (math.Pow(fb, 1-theta) - math.Pow(fa, 1-theta)) / (1 - theta)
	}
	endpoints := (math.Pow(fb, -theta) - math.Pow(fa, -theta)) / 2
	deriv := -theta * (math.Pow(fb, -theta-1) - math.Pow(fa, -theta-1)) / 12
	return integral + endpoints + deriv
}
