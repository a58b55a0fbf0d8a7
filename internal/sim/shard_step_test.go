package sim

import (
	"fmt"
	"slices"
	"testing"
)

// TestShardSetStepInstants pins stepping: every barrier follows exactly
// one instant. At each hook call every event executed since the previous
// call (tombstoned ones included) ran at end-1, at least one did, and no
// partition still holds an event before end, so the window ran all of
// instant end-1 and nothing later. The barriers count the distinct
// execution instants, and the
// per-partition execution order equals the unstepped run's (which
// TestShardExchangeReferenceModel holds to the single-engine reference).
func TestShardSetStepInstants(t *testing.T) {
	unstepped, err := NewShardSet(refParts, 1, refLookahead)
	if err != nil {
		t.Fatal(err)
	}
	want := runRefWorkload(t, &shardedModel{set: unstepped})
	for _, workers := range []int{1, 2, 4} {
		set, err := NewShardSet(refParts, workers, refLookahead)
		if err != nil {
			t.Fatal(err)
		}
		m := &shardedModel{set: set}
		w := newRefWorkload(t, m)
		execs := make([][]Time, refParts) // per partition, every executed event's instant
		m.fn = func(arg any) {
			ev := arg.(*shardRefEvent)
			execs[ev.p] = append(execs[ev.p], set.Engine(ev.p).Now())
			w.handle(ev)
		}
		w.seed()
		set.SetStepping(true)
		seen := make([]int, refParts)
		barriers := 0
		err = set.Run(Time(1)<<50, func(end Time) bool {
			barriers++
			ran := 0
			for p := range execs {
				for _, at := range execs[p][seen[p]:] {
					if at != end-1 {
						t.Fatalf("workers=%d: window ending %v ran an event at %v", workers, end, at)
					}
					ran++
				}
				seen[p] = len(execs[p])
				if at, ok := set.Engine(p).NextEventAt(); ok && at < end {
					t.Fatalf("workers=%d: partition %d holds an event at %v after the window ending %v", workers, p, at, end)
				}
			}
			if ran == 0 {
				t.Fatalf("workers=%d: window ending %v ran nothing", workers, end)
			}
			return false
		})
		if err != nil {
			t.Fatal(err)
		}
		instants := map[Time]bool{}
		for _, ats := range execs {
			for _, at := range ats {
				instants[at] = true
			}
		}
		if barriers != len(instants) {
			t.Errorf("workers=%d: %d barriers for %d distinct instants", workers, barriers, len(instants))
		}
		if got := w.digest(); got != want {
			t.Errorf("workers=%d: digest %#016x, want %#016x", workers, got, want)
		}
	}
}

// TestShardSetStepBeforeGlobal pins the order at a stepped barrier: the
// hook of instant g-1 runs before a global due at g, which runs at a
// barrier of its own, before the events at g.
func TestShardSetStepBeforeGlobal(t *testing.T) {
	set, err := NewShardSet(2, 1, Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	at := 50 * Microsecond
	set.Engine(0).MustScheduleArg(at-1, func(any) { order = append(order, "event@g-1") }, nil)
	set.Engine(1).MustScheduleArg(at, func(any) { order = append(order, "event@g") }, nil)
	if err := set.ScheduleGlobal(at, func() { order = append(order, "global@g") }); err != nil {
		t.Fatal(err)
	}
	set.SetStepping(true)
	err = set.Run(Second, func(end Time) bool {
		order = append(order, fmt.Sprintf("hook@g%+d", end-1-at))
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"event@g-1", "hook@g-1", "global@g", "hook@g-1", "event@g", "hook@g+0"}
	if !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// BenchmarkShardSetStep measures one stepped instant (ns/op): 33
// partitions, as in the k=32 fat-tree, each with a ticker that fires every
// 33 ns at its own offset, so every instant has one active partition and
// every barrier scans all 33.
func BenchmarkShardSetStep(b *testing.B) {
	const parts = 33
	set, err := NewShardSet(parts, 1, 30*Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	var tick ArgHandler
	tick = func(arg any) { arg.(*Engine).MustScheduleArg(parts, tick, arg) }
	for p := 0; p < parts; p++ {
		e := set.Engine(p)
		e.MustScheduleArg(Time(p), tick, e)
	}
	set.SetStepping(true)
	steps, stop := 0, parts
	hook := func(Time) bool {
		steps++
		return steps >= stop
	}
	// One warm-up round grows every engine's free list once.
	if err := set.Run(Time(1)<<62, hook); err != nil {
		b.Fatal(err)
	}
	steps, stop = 0, b.N
	b.ReportAllocs()
	b.ResetTimer()
	if err := set.Run(Time(1)<<62, hook); err != nil {
		b.Fatal(err)
	}
}
