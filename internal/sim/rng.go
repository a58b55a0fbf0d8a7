package sim

import "math"

// RNG is a small, fast, deterministic pseudorandom generator
// (xoshiro256** seeded through SplitMix64). Every stochastic component of a
// simulation owns its own RNG stream, derived from the experiment seed, so
// adding or removing one component never perturbs the draws seen by others.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitMix64(sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Stream derives an independent child generator. Children with distinct ids
// from the same parent produce statistically independent streams.
func (r *RNG) Stream(id uint64) *RNG {
	// Mix the parent's state with the stream id through SplitMix64 to
	// decorrelate child streams.
	_, a := splitMix64(r.s[0] ^ (id * 0xbf58476d1ce4e5b9))
	_, b := splitMix64(r.s[1] ^ (id + 0x94d049bb133111eb))
	return NewRNG(a ^ rotl(b, 17))
}

// DeriveSeed deterministically derives an independent per-trial seed from
// a base seed and a trial index. It is the one place the repository turns
// (base, trial) pairs into seeds — the facade's repeated runs, the sweep
// executor, and the benches all derive trial streams through it, so a
// trial's randomness never depends on which harness launched it or on how
// many trials run concurrently. Two SplitMix64 rounds decorrelate adjacent
// indices and bases.
func DeriveSeed(base, trial uint64) uint64 {
	state := base ^ rotl(trial+0x9e3779b97f4a7c15, 23)
	state, a := splitMix64(state)
	_, b := splitMix64(state ^ trial)
	return a ^ rotl(b, 29)
}

// splitMix64 advances a SplitMix64 state and returns (nextState, output).
func splitMix64(state uint64) (uint64, uint64) {
	return state + 0x9e3779b97f4a7c15, Mix64(state)
}

// Mix64 is the SplitMix64 output function of state x: a bijective 64-bit
// mixer, and the one the repository uses wherever a value must be a
// well-spread pure function of an integer key (cache item sizes, Zipf
// rank scrambling, ECMP flow hashes).
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform draw in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive bound")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform draw in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero bound")
	}
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (uint64, uint64) {
	const mask = 1<<32 - 1
	x0, x1 := x&mask, x>>32
	y0, y1 := y&mask, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask + x0*y1
	hi := x1*y1 + t>>32 + w1>>32
	return hi, x * y
}

// ExpFloat64 returns an exponential draw with mean 1.
func (r *RNG) ExpFloat64() float64 {
	// Inverse transform: -ln(U) with U in (0, 1].
	u := 1 - r.Float64()
	return -math.Log(u)
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using the provided swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}
