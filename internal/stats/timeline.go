package stats

import (
	"fmt"
	"strings"

	"netrs/internal/sim"
)

// Timeline is a time-bucketed latency recorder: it splits the simulated
// clock into fixed-width buckets and keeps, per bucket, a Recorder of the
// latencies of the requests that completed inside it plus the counts needed
// for the resilience experiments — degraded (DRS) responses and timeout
// expiries. Summarizing yields a latency-over-time series that shows when a
// run degrades after a fault and when it re-converges after recovery,
// rather than one steady-state number that averages the excursion away.
//
// Buckets are indexed by completion time. Width must be positive. A
// summary does not depend on the order samples were recorded or timelines
// merged.
type Timeline struct {
	width   sim.Time
	buckets []timelineBucket
}

// timelineBucket accumulates one bucket's latencies and counters.
type timelineBucket struct {
	rec      Recorder
	degraded int
	timeouts int
}

// TimelineBucket is one summarized bucket of a timeline series.
type TimelineBucket struct {
	// StartMs and EndMs bound the bucket on the simulated clock.
	StartMs float64 `json:"startMs"`
	EndMs   float64 `json:"endMs"`
	// Count is the number of requests that completed in the bucket.
	Count int `json:"count"`
	// MeanMs and P99Ms summarize the bucket's completion latencies.
	MeanMs float64 `json:"meanMs"`
	P99Ms  float64 `json:"p99Ms"`
	// DRSShare is the fraction of the bucket's completions answered under
	// Degraded Replica Selection.
	DRSShare float64 `json:"drsShare"`
	// Timeouts counts timeout expiries (redundant-request timer firings)
	// inside the bucket.
	Timeouts int `json:"timeouts"`
}

// NewTimeline returns an empty timeline with the given bucket width.
func NewTimeline(width sim.Time) (*Timeline, error) {
	if width <= 0 {
		return nil, fmt.Errorf("stats: timeline bucket width %v must be positive", width)
	}
	return &Timeline{width: width}, nil
}

// Width returns the bucket width.
func (t *Timeline) Width() sim.Time { return t.width }

// bucketAt returns the bucket covering instant at, growing the series as
// the clock advances.
func (t *Timeline) bucketAt(at sim.Time) *timelineBucket {
	idx := int(at / t.width)
	if at < 0 {
		idx = 0
	}
	for len(t.buckets) <= idx {
		t.buckets = append(t.buckets, timelineBucket{})
	}
	return &t.buckets[idx]
}

// Record adds one completed request: its completion instant, its latency,
// and whether it was answered under DRS.
func (t *Timeline) Record(at sim.Time, latency sim.Time, degraded bool) {
	b := t.bucketAt(at)
	b.rec.Record(latency)
	if degraded {
		b.degraded++
	}
}

// RecordTimeout notes a timeout expiry at instant at.
func (t *Timeline) RecordTimeout(at sim.Time) {
	t.bucketAt(at).timeouts++
}

// Merge folds other into t, which must have the same bucket width. The
// fold is exact: each bucket's recorders merge and its counts add, so t
// ends up as the one timeline fed both sample streams would be, in any
// merge order.
func (t *Timeline) Merge(other *Timeline) error {
	if other.width != t.width {
		return fmt.Errorf("stats: merge timeline of bucket width %v into width %v", other.width, t.width)
	}
	if grow := len(other.buckets) - len(t.buckets); grow > 0 {
		t.buckets = append(t.buckets, make([]timelineBucket, grow)...)
	}
	for i := range other.buckets {
		b, o := &t.buckets[i], &other.buckets[i]
		b.rec.Merge(&o.rec)
		b.degraded += o.degraded
		b.timeouts += o.timeouts
	}
	return nil
}

// Buckets summarizes the series: one entry per bucket from time zero
// through the last bucket touched, empty buckets included so the series is
// contiguous.
func (t *Timeline) Buckets() []TimelineBucket {
	out := make([]TimelineBucket, len(t.buckets))
	for i := range t.buckets {
		b := &t.buckets[i]
		tb := TimelineBucket{
			StartMs:  (sim.Time(i) * t.width).Float64Ms(),
			EndMs:    (sim.Time(i+1) * t.width).Float64Ms(),
			Count:    b.rec.Count(),
			Timeouts: b.timeouts,
		}
		if n := b.rec.Count(); n > 0 {
			// The mean must be computed in float64: Recorder.Mean's
			// integer division of the tick-granular sum truncates toward
			// zero, biasing every bucket mean low by up to one tick per
			// sample.
			tb.MeanMs = float64(b.rec.sum) / float64(n) / float64(sim.Millisecond)
			p99, _ := b.rec.Percentile(99) // n > 0 and 99 is in range
			tb.P99Ms = p99.Float64Ms()
			tb.DRSShare = float64(b.degraded) / float64(n)
		}
		out[i] = tb
	}
	return out
}

// TimelineTable renders a bucket series as a fixed-width text table, the
// format the resilience experiment records in figs_output.txt.
func TimelineTable(buckets []TimelineBucket) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%10s %10s %8s %10s %10s %9s %8s\n",
		"startMs", "endMs", "n", "meanMs", "p99Ms", "drsShare", "timeouts")
	for _, b := range buckets {
		fmt.Fprintf(&sb, "%10.1f %10.1f %8d %10.3f %10.3f %9.3f %8d\n",
			b.StartMs, b.EndMs, b.Count, b.MeanMs, b.P99Ms, b.DRSShare, b.Timeouts)
	}
	return sb.String()
}
