package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Histogram is a constant-memory log-bucketed latency histogram in the
// style of HdrHistogram. Values are bucketed with a configurable number of
// significant bits per power-of-two range, so relative quantile error is
// bounded by 2^-sigBits regardless of the value range. The long-running
// benches use it where keeping every sample would be wasteful.
type Histogram struct {
	sigBits  uint
	buckets  []uint64
	count    uint64
	maxSeen  uint64
	underMin uint64
}

// NewHistogram returns a histogram with sigBits bits of value precision
// (1–12). 7 bits (< 1% relative error) suits latency work.
func NewHistogram(sigBits uint) (*Histogram, error) {
	if sigBits < 1 || sigBits > 12 {
		return nil, fmt.Errorf("stats: histogram sigBits %d out of [1, 12]", sigBits)
	}
	// 64 value magnitudes, each split into 2^sigBits sub-buckets.
	return &Histogram{
		sigBits: sigBits,
		buckets: make([]uint64, 64<<sigBits),
	}, nil
}

// bucketIndex maps a value to its bucket.
func (h *Histogram) bucketIndex(v uint64) int {
	if v < 1<<h.sigBits {
		return int(v)
	}
	mag := uint(bits.Len64(v)) - 1 // highest set bit position
	shift := mag - h.sigBits
	sub := (v >> shift) & ((1 << h.sigBits) - 1)
	return int((uint64(mag-h.sigBits+1) << h.sigBits) + sub)
}

// bucketLow returns the smallest value mapped to bucket i; used to invert
// quantile queries.
func (h *Histogram) bucketLow(i int) uint64 {
	block := uint(i) >> h.sigBits
	sub := uint64(i) & ((1 << h.sigBits) - 1)
	if block == 0 {
		return sub
	}
	shift := block - 1
	return (1<<h.sigBits + sub) << shift
}

// Record adds a nonnegative value.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		h.underMin++
		v = 0
	}
	u := uint64(v)
	h.buckets[h.bucketIndex(u)]++
	h.count++
	if u > h.maxSeen {
		h.maxSeen = u
	}
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.count }

// Max returns the largest recorded value (exact).
func (h *Histogram) Max() (uint64, error) {
	if h.count == 0 {
		return 0, ErrNoSamples
	}
	return h.maxSeen, nil
}

// Quantile returns an approximation of the q-quantile (0 < q <= 1) with
// relative error bounded by the histogram precision.
func (h *Histogram) Quantile(q float64) (uint64, error) {
	if h.count == 0 {
		return 0, ErrNoSamples
	}
	if q <= 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of (0, 1]", q)
	}
	target := uint64(math.Ceil(q*float64(h.count) - 1e-9))
	if target < 1 {
		target = 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= target {
			low := h.bucketLow(i)
			high := h.bucketLow(i + 1)
			if high == 0 || high > h.maxSeen {
				high = h.maxSeen + 1
			}
			// Midpoint of the bucket bounds the relative error.
			mid := low + (high-low)/2
			if mid > h.maxSeen {
				mid = h.maxSeen
			}
			return mid, nil
		}
	}
	return h.maxSeen, nil
}

// Merge adds every sample of other into h. The histograms must share the
// same precision.
func (h *Histogram) Merge(other *Histogram) error {
	if other.sigBits != h.sigBits {
		return fmt.Errorf("stats: merge precision mismatch %d != %d", other.sigBits, h.sigBits)
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.count += other.count
	if other.maxSeen > h.maxSeen {
		h.maxSeen = other.maxSeen
	}
	h.underMin += other.underMin
	return nil
}

// Reset clears all recorded values.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.count, h.maxSeen, h.underMin = 0, 0, 0
}
