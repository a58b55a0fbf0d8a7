// Package stats provides the measurement machinery for the NetRS
// experiments: the exact-sample latency recorder and the time-bucketed
// timeline built from it, EWMAs (used by the C3 algorithm), Welford
// running moments, and a streaming P² quantile estimator (used by the
// CliRS-R95 scheme to track its 95th-percentile reissue threshold).
package stats

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"netrs/internal/sim"
)

// ErrNoSamples reports a query against an empty recorder.
var ErrNoSamples = errors.New("stats: no samples")

// Recorder accumulates latency samples and answers percentile queries.
//
// It stores every sample, 8 bytes each; for the experiment sizes in this
// repository (millions of requests) that is tens of megabytes, which buys
// exact tail percentiles — the quantity the paper is about.
type Recorder struct {
	samples []sim.Time
	sum     sim.Time
	sorted  bool
}

// NewRecorder returns an empty recorder with capacity for hint samples.
func NewRecorder(hint int) *Recorder {
	if hint < 0 {
		hint = 0
	}
	return &Recorder{samples: make([]sim.Time, 0, hint)}
}

// Record adds one latency sample.
func (r *Recorder) Record(v sim.Time) {
	r.samples = append(r.samples, v)
	r.sum += v
	r.sorted = false
}

// Count returns the number of samples recorded.
func (r *Recorder) Count() int { return len(r.samples) }

// Mean returns the average sample, or an error if empty.
func (r *Recorder) Mean() (sim.Time, error) {
	if len(r.samples) == 0 {
		return 0, ErrNoSamples
	}
	return r.sum / sim.Time(len(r.samples)), nil
}

// Percentile returns the p-th percentile (0 < p <= 100) by the
// nearest-rank method on the sorted samples, sorting once and caching the
// sorted state until the next Record or Merge invalidates it.
func (r *Recorder) Percentile(p float64) (sim.Time, error) {
	if len(r.samples) == 0 {
		return 0, ErrNoSamples
	}
	if p <= 0 || p > 100 || math.IsNaN(p) {
		return 0, fmt.Errorf("stats: percentile %v out of (0, 100]", p)
	}
	if !r.sorted {
		slices.Sort(r.samples)
		r.sorted = true
	}
	// The epsilon guards against float artifacts such as
	// 99.9/100*1000 evaluating just above 999.
	rank := int(math.Ceil(p/100*float64(len(r.samples)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return r.samples[rank-1], nil
}

// Max returns the largest sample.
func (r *Recorder) Max() (sim.Time, error) { return r.Percentile(100) }

// Merge folds every sample of other into r, so r ends up as the one
// recorder fed both sample streams would be, in any merge order. A nil
// other is a no-op.
func (r *Recorder) Merge(other *Recorder) {
	if other == nil || len(other.samples) == 0 {
		return
	}
	r.samples = append(r.samples, other.samples...)
	r.sum += other.sum
	r.sorted = false
}

// Summary condenses a recorder into the four statistics the paper's figures
// plot, in milliseconds.
type Summary struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"meanMs"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
	P999Ms float64 `json:"p999Ms"`
}

// Summarize computes the figure statistics. It returns an error when the
// recorder is empty.
func (r *Recorder) Summarize() (Summary, error) {
	mean, err := r.Mean()
	if err != nil {
		return Summary{}, err
	}
	p95, err := r.Percentile(95)
	if err != nil {
		return Summary{}, err
	}
	p99, err := r.Percentile(99)
	if err != nil {
		return Summary{}, err
	}
	p999, err := r.Percentile(99.9)
	if err != nil {
		return Summary{}, err
	}
	return Summary{
		Count:  r.Count(),
		MeanMs: mean.Float64Ms(),
		P95Ms:  p95.Float64Ms(),
		P99Ms:  p99.Float64Ms(),
		P999Ms: p999.Float64Ms(),
	}, nil
}

// String renders the summary as a fixed-width row.
func (s Summary) String() string {
	return fmt.Sprintf("n=%-8d mean=%8.3fms p95=%8.3fms p99=%8.3fms p99.9=%8.3fms",
		s.Count, s.MeanMs, s.P95Ms, s.P99Ms, s.P999Ms)
}

// MergeSummaries averages a set of summaries point-wise; the paper repeats
// every experiment three times with different random deployments and
// reports the combined result.
func MergeSummaries(parts []Summary) (Summary, error) {
	if len(parts) == 0 {
		return Summary{}, ErrNoSamples
	}
	var out Summary
	for _, p := range parts {
		out.Count += p.Count
		out.MeanMs += p.MeanMs
		out.P95Ms += p.P95Ms
		out.P99Ms += p.P99Ms
		out.P999Ms += p.P999Ms
	}
	n := float64(len(parts))
	out.MeanMs /= n
	out.P95Ms /= n
	out.P99Ms /= n
	out.P999Ms /= n
	return out, nil
}
