// Package stats provides the measurement machinery for the NetRS
// experiments: exact-sample latency recorders, log-bucketed histograms for
// constant-memory recording, EWMAs (used by the C3 algorithm), and a
// streaming P² quantile estimator (used by the CliRS-R95 scheme to track
// its 95th-percentile reissue threshold).
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

// boundedSigBits is the histogram precision of the recorder's
// memory-bounded mode: 9 significant bits keep the relative quantile
// error under 0.2% at 256 KiB per spilled recorder.
const boundedSigBits = 9

// Recorder accumulates latency samples and answers percentile queries.
//
// In its default (exact) mode it stores every sample; for the experiment
// sizes in this repository (millions of requests) that is tens of
// megabytes, which buys exact tail percentiles — the quantity the paper is
// about. With a sample cap (NewBoundedRecorder) the recorder stays exact
// up to the cap and then spills into a log-bucketed histogram, bounding
// memory per trial so many sweep cells can run concurrently without
// holding every cell's full sample slice alive at once.
type Recorder struct {
	samples []sim.Time
	sum     sim.Time
	count   int
	sorted  bool

	// limit is the sample cap; 0 keeps the recorder exact forever.
	limit int
	// hist is non-nil once the recorder has spilled past its cap.
	hist *Histogram
}

// NewRecorder returns an empty exact recorder with capacity for hint
// samples.
func NewRecorder(hint int) *Recorder {
	if hint < 0 {
		hint = 0
	}
	return &Recorder{samples: make([]sim.Time, 0, hint)}
}

// NewBoundedRecorder returns a recorder that keeps at most sampleCap exact
// samples: up to the cap it behaves exactly like NewRecorder (bit-identical
// percentiles), past it the samples spill into a log-bucketed histogram
// (relative quantile error < 2^-9) and memory stays constant. A
// non-positive cap means unbounded.
func NewBoundedRecorder(hint, sampleCap int) *Recorder {
	if sampleCap < 0 {
		sampleCap = 0
	}
	if hint > sampleCap && sampleCap > 0 {
		hint = sampleCap
	}
	r := NewRecorder(hint)
	r.limit = sampleCap
	return r
}

// Record adds one latency sample.
func (r *Recorder) Record(v sim.Time) {
	r.count++
	r.sum += v
	if r.hist != nil {
		r.hist.Record(int64(v))
		return
	}
	r.samples = append(r.samples, v)
	r.sorted = false
	if r.limit > 0 && len(r.samples) > r.limit {
		r.spill()
	}
}

// spill converts the recorder to histogram mode, folding the retained
// samples into the histogram, then releasing the sample slice.
func (r *Recorder) spill() {
	hist, err := NewHistogram(boundedSigBits)
	if err != nil {
		// Unreachable: boundedSigBits is a valid constant precision.
		panic(fmt.Sprintf("stats: bounded histogram: %v", err))
	}
	r.hist = hist
	for _, v := range r.samples {
		r.hist.Record(int64(v))
	}
	r.samples = nil
	r.sorted = false
}

// Exact reports whether percentile queries are still answered from the
// full sample set (always true for unbounded recorders).
func (r *Recorder) Exact() bool { return r.hist == nil }

// Count returns the number of samples recorded.
func (r *Recorder) Count() int { return r.count }

// Mean returns the average sample, or an error if empty. The mean is exact
// in every mode: the running sum never spills.
func (r *Recorder) Mean() (sim.Time, error) {
	if r.count == 0 {
		return 0, ErrNoSamples
	}
	return r.sum / sim.Time(r.count), nil
}

// Percentile returns the p-th percentile (0 < p <= 100). Exact recorders
// use the nearest-rank method on the sorted samples, sorting once and
// caching the sorted state until the next Record or Merge invalidates it.
// Spilled recorders answer from the log-bucketed histogram.
func (r *Recorder) Percentile(p float64) (sim.Time, error) {
	if r.count == 0 {
		return 0, ErrNoSamples
	}
	if p <= 0 || p > 100 || math.IsNaN(p) {
		return 0, fmt.Errorf("stats: percentile %v out of (0, 100]", p)
	}
	if r.hist != nil {
		v, err := r.hist.Quantile(p / 100)
		return sim.Time(v), err
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

// Max returns the largest sample (exact in every mode: the histogram
// tracks its true maximum).
func (r *Recorder) Max() (sim.Time, error) {
	if r.hist != nil {
		v, err := r.hist.Max()
		return sim.Time(v), err
	}
	return r.Percentile(100)
}

// Merge folds every sample of other into r. Two exact recorders stay
// exact; if either side has spilled, both spill and the histograms merge.
// Two recorders under one cap therefore merge into what a single recorder
// with that cap, fed the same samples in any order, would hold: the merge
// spills exactly when the combined count exceeds the cap, and the
// histogram is per-bucket counts plus an exact maximum. other is left in
// an unspecified state and must not be used afterwards.
func (r *Recorder) Merge(other *Recorder) error {
	if other == nil || other.count == 0 {
		return nil
	}
	if r.hist == nil && other.hist == nil {
		r.samples = append(r.samples, other.samples...)
		r.sum += other.sum
		r.count += other.count
		r.sorted = false
		if r.limit > 0 && len(r.samples) > r.limit {
			r.spill()
		}
		return nil
	}
	if r.hist == nil {
		r.spill()
	}
	if other.hist == nil {
		other.spill()
	}
	if err := r.hist.Merge(other.hist); err != nil {
		return err
	}
	r.sum += other.sum
	r.count += other.count
	return nil
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
