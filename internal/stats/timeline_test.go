package stats

import (
	"reflect"
	"strings"
	"testing"

	"netrs/internal/sim"
)

func TestTimelineBucketsContiguous(t *testing.T) {
	tl, err := NewTimeline(10 * sim.Millisecond)
	if err != nil {
		t.Fatalf("NewTimeline: %v", err)
	}
	if tl.Width() != 10*sim.Millisecond {
		t.Errorf("Width = %v", tl.Width())
	}

	// Bucket 0: two normal completions.
	tl.Record(1*sim.Millisecond, 2*sim.Millisecond, false)
	tl.Record(9*sim.Millisecond, 4*sim.Millisecond, false)
	// Bucket 2 (skipping bucket 1 entirely): one degraded completion and a
	// timeout.
	tl.Record(25*sim.Millisecond, 8*sim.Millisecond, true)
	tl.RecordTimeout(27 * sim.Millisecond)

	buckets := tl.Buckets()
	if len(buckets) != 3 {
		t.Fatalf("got %d buckets, want 3 (contiguous through last touched)", len(buckets))
	}

	b0 := buckets[0]
	if b0.StartMs != 0 || b0.EndMs != 10 {
		t.Errorf("bucket 0 bounds [%v, %v], want [0, 10]", b0.StartMs, b0.EndMs)
	}
	if b0.Count != 2 || b0.MeanMs != 3 || b0.DRSShare != 0 || b0.Timeouts != 0 {
		t.Errorf("bucket 0 = %+v", b0)
	}
	if b0.P99Ms != 4 {
		t.Errorf("bucket 0 p99 = %v, want 4 (nearest rank of 2 samples)", b0.P99Ms)
	}

	b1 := buckets[1]
	if b1.Count != 0 || b1.MeanMs != 0 || b1.P99Ms != 0 || b1.DRSShare != 0 {
		t.Errorf("empty bucket 1 = %+v", b1)
	}

	b2 := buckets[2]
	if b2.Count != 1 || b2.MeanMs != 8 || b2.P99Ms != 8 || b2.DRSShare != 1 || b2.Timeouts != 1 {
		t.Errorf("bucket 2 = %+v", b2)
	}
}

func TestTimelineBoundaryGoesToUpperBucket(t *testing.T) {
	tl, err := NewTimeline(10 * sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	tl.Record(10*sim.Millisecond, sim.Millisecond, false)
	buckets := tl.Buckets()
	if len(buckets) != 2 {
		t.Fatalf("got %d buckets, want 2", len(buckets))
	}
	if buckets[0].Count != 0 || buckets[1].Count != 1 {
		t.Errorf("boundary sample landed in bucket 0: %+v", buckets)
	}
}

func TestTimelineP99NearestRank(t *testing.T) {
	tl, err := NewTimeline(sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	// 100 samples 1..100 ms, recorded out of order: p99 = 99th value = 99ms.
	for i := 100; i >= 1; i-- {
		tl.Record(0, sim.Time(i)*sim.Millisecond, false)
	}
	buckets := tl.Buckets()
	if got := buckets[0].P99Ms; got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	// Summarizing must not disturb recorded order (Buckets sorts a clone).
	again := tl.Buckets()
	if again[0].P99Ms != 99 || again[0].MeanMs != buckets[0].MeanMs {
		t.Errorf("second summary differs: %+v vs %+v", again[0], buckets[0])
	}
}

func TestTimelineRejectsNonPositiveWidth(t *testing.T) {
	if _, err := NewTimeline(0); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewTimeline(-sim.Millisecond); err == nil {
		t.Error("negative width accepted")
	}
}

func TestTimelineTable(t *testing.T) {
	tl, err := NewTimeline(50 * sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	tl.Record(10*sim.Millisecond, 3*sim.Millisecond, true)
	table := TimelineTable(tl.Buckets())
	if !strings.Contains(table, "drsShare") {
		t.Errorf("table missing header: %q", table)
	}
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	if len(lines) != 2 {
		t.Errorf("table has %d lines, want header + 1 bucket:\n%s", len(lines), table)
	}
}

// TestTimelineMeanSubTickPrecision pins the float64 bucket mean: a bucket
// holding latencies of 1 ns and 2 ns has mean 1.5 ns. The mean used to be
// computed with integer division of the tick-granular sum, truncating it
// to 1 ns — a bias of up to one tick per sample on every bucket.
func TestTimelineMeanSubTickPrecision(t *testing.T) {
	tl, err := NewTimeline(10 * sim.Millisecond)
	if err != nil {
		t.Fatalf("NewTimeline: %v", err)
	}
	tl.Record(1*sim.Millisecond, 1, false)
	tl.Record(2*sim.Millisecond, 2, false)
	b := tl.Buckets()[0]
	want := 1.5 / float64(sim.Millisecond)
	if b.MeanMs != want {
		t.Fatalf("MeanMs = %v, want %v (1.5 ns, not truncated to 1 ns)", b.MeanMs, want)
	}
}

// TestTimelineMergeMatchesSingle splits one sample stream over three
// timelines of unequal length, with empty buckets, degraded completions
// and timeouts, and folds them in every order: each fold summarizes to
// the buckets of the one timeline fed every sample. Timelines of
// different widths do not merge.
func TestTimelineMergeMatchesSingle(t *testing.T) {
	const width = 10 * sim.Millisecond
	type sample struct {
		part     int
		at, lat  sim.Time
		degraded bool
		timeout  bool
	}
	rng := sim.NewRNG(7)
	var stream []sample
	for i := range 300 {
		// Partition 0 completes only in the first 40 ms, partition 1 only
		// in 60-120 ms, partition 2 throughout; 40-60 ms stays empty.
		part := i % 3
		at := sim.Time(rng.Intn(int(40 * sim.Millisecond)))
		switch part {
		case 1:
			at += 60 * sim.Millisecond
		case 2:
			if i%2 == 0 {
				at += 80 * sim.Millisecond
			}
		}
		stream = append(stream, sample{
			part:     part,
			at:       at,
			lat:      sim.Time(1 + rng.Intn(int(5*sim.Millisecond))),
			degraded: rng.Float64() < 0.2,
			timeout:  part > 0 && rng.Float64() < 0.1,
		})
	}
	record := func(tl *Timeline, s sample) {
		if s.timeout {
			tl.RecordTimeout(s.at)
			return
		}
		tl.Record(s.at, s.lat, s.degraded)
	}
	single, err := NewTimeline(width)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stream {
		record(single, s)
	}
	want := single.Buckets()
	if len(want) != 12 || want[4].Count != 0 || want[5].Count != 0 {
		t.Fatalf("single timeline %+v; want 12 buckets with 40-60 ms empty", want)
	}

	for _, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		var parts [3]*Timeline
		for i := range parts {
			if parts[i], err = NewTimeline(width); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range stream {
			record(parts[s.part], s)
		}
		merged := parts[order[0]]
		for _, p := range order[1:] {
			if err := merged.Merge(parts[p]); err != nil {
				t.Fatal(err)
			}
		}
		if got := merged.Buckets(); !reflect.DeepEqual(got, want) {
			t.Errorf("merge order %v:\n got %+v\nwant %+v", order, got, want)
		}
	}

	other, err := NewTimeline(2 * width)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Merge(other); err == nil {
		t.Error("timelines of different widths merged")
	}
}
