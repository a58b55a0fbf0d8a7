package sim

import (
	"runtime"
	"slices"
	"testing"
)

// loneRec is one executed event of the one-partition model: its instant
// and its id, the model's count of events scheduled before it. A periodic
// tick logs id tickID.
type loneRec struct {
	at Time
	id int
}

const tickID = -1

// loneModel drives one engine with every queue a partition has: heap
// events at random delays, a fixed-delay lane and a stream. Every
// delay is shorter than the tick period, so the events at a tick instant
// were all scheduled after the tick that instant was armed by.
type loneModel struct {
	eng     *Engine
	rng     *RNG
	lane    *Lane
	fn      ArgHandler
	ids     int
	ran     int
	stopped bool
	log     []loneRec
}

const (
	lonePeriod    = 100
	loneLaneDelay = 61
	loneArrivals  = 60
	loneChunk     = 8    // arrivals a refill pushes; even, so no tie is split
	loneCap       = 3000 // events scheduled before the model stops spawning
	loneStopAfter = 1500 // executed events before the model calls Stop
)

func newLoneModel(eng *Engine) *loneModel {
	m := &loneModel{eng: eng, rng: NewRNG(7), lane: eng.Lane(loneLaneDelay)}
	m.fn = func(arg any) { m.handle(arg.(int)) }
	return m
}

func (m *loneModel) handle(id int) {
	m.log = append(m.log, loneRec{m.eng.Now(), id})
	m.ran++
	if m.ran == loneStopAfter {
		m.stopped = true
		m.eng.Stop()
	}
	for n := 1 + m.rng.Intn(2); n > 0 && m.ids < loneCap; n-- {
		if m.rng.Intn(3) == 0 {
			m.lane.ScheduleArg(m.fn, m.ids)
		} else {
			// Delays in [0, 90): zero-delay children and equal instants
			// exercise the FIFO tie-break.
			m.eng.MustScheduleArg(Time(m.rng.Intn(90)), m.fn, m.ids)
		}
		m.ids++
	}
}

// seed opens the arrivals' stream: pairs at equal odd instants, never on
// an (even) tick instant. With a nil set it pushes them all at once;
// otherwise a refill global pushes them loneChunk at a time, at the first
// arrival the last refill left out, as the cluster runner does.
func (m *loneModel) seed(t *testing.T, set *ShardSet) {
	base := m.ids
	str, err := m.eng.Stream(loneArrivals, m.fn)
	if err != nil {
		t.Fatal(err)
	}
	m.ids += loneArrivals
	at := func(i int) Time { return Time(i/2*34 + 1) }
	next := 0
	var refill func()
	refill = func() {
		end := loneArrivals
		if set != nil {
			end = min(next+loneChunk, loneArrivals)
		}
		for ; next < end; next++ {
			if err := str.Push(next, at(next), base+next); err != nil {
				t.Fatal(err)
			}
		}
		if next == loneArrivals {
			str.Close()
		} else if err := set.ScheduleGlobal(at(next), refill); err != nil {
			t.Fatal(err)
		}
	}
	refill()
}

// TestShardSetSinglePartition pins the one-partition contract the cluster
// runner relies on at Shards ≤ 1: such a set starts no goroutines whatever
// its worker count, and it executes a model exactly as a plain Engine does
// — the same (instant, id) trace and the same end clock — while the Run
// hook turns stepping on and off and a Stop inside a window, after which
// the hook ends Run, cuts it at the same event. A periodic global runs
// where a self-re-arming engine event armed one period earlier runs,
// because every other event at its instant was scheduled after that
// arming. Arrivals a refill global pushes onto a stream a chunk at a time
// run where the plain engine runs them, pushed all at once.
func TestShardSetSinglePartition(t *testing.T) {
	ref := newLoneModel(NewEngine())
	ref.seed(t, nil)
	var tick func()
	tick = func() {
		ref.log = append(ref.log, loneRec{ref.eng.Now(), tickID})
		ref.eng.MustSchedule(lonePeriod, tick)
	}
	ref.eng.MustSchedule(lonePeriod, tick)
	ref.eng.Run()

	set, err := NewShardSet(1, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if set.Workers() != 1 {
		t.Fatalf("one-partition set reports %d workers, want 1", set.Workers())
	}
	m := newLoneModel(set.Engine(0))
	m.seed(t, set)
	at := Time(0)
	var global func()
	arm := func() {
		at += lonePeriod
		if err := set.ScheduleGlobal(at, global); err != nil {
			t.Fatal(err)
		}
	}
	global = func() {
		m.log = append(m.log, loneRec{m.eng.Now(), tickID})
		arm()
	}
	arm()
	// Workers of earlier tests' sets may still be exiting, so the count
	// can fall while Run runs, but it must not rise.
	goroutines := runtime.NumGoroutine()
	hooks, steppedRuns := 0, 0
	ranBefore := 0
	err = set.Run(Time(1)<<40, func(end Time) bool {
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Fatalf("%d goroutines inside Run, %d before it", n, goroutines)
		}
		hooks++
		if hooks > 5 && hooks <= 60 && m.ran > ranBefore {
			steppedRuns++
		}
		ranBefore = m.ran
		set.SetStepping(hooks >= 5 && hooks < 60)
		return m.stopped
	})
	if err != nil {
		t.Fatal(err)
	}
	if steppedRuns == 0 {
		t.Fatal("no stepped window ran an event; the stepping check is vacuous")
	}
	if !m.stopped {
		t.Fatal("the run ended before the model's Stop")
	}
	if !slices.Equal(m.log, ref.log) {
		t.Fatalf("trace differs from the plain engine's: %d records, want %d", len(m.log), len(ref.log))
	}
	if m.eng.Now() != ref.eng.Now() {
		t.Fatalf("end clock %v, want %v", m.eng.Now(), ref.eng.Now())
	}
	ticks, tied := 0, 0
	for _, r := range ref.log {
		if r.id == tickID {
			ticks++
		} else if r.at%lonePeriod == 0 && r.at > 0 {
			tied++
		}
	}
	if ticks < 3 || tied == 0 {
		t.Fatalf("%d ticks and %d events at a tick instant; the global check is vacuous", ticks, tied)
	}
	t.Logf("%d events, %d ticks, %d events at a tick instant, %d hooks, %d stepped windows", len(ref.log)-ticks, ticks, tied, hooks, steppedRuns)
}

// TestShardSetStopSkipsGlobal stops a one-partition window short of a
// global due inside it. The barrier after the stop runs the hook but not
// the global, which would lift the clock past the stopped partition's
// pending event; the next window resumes the partition where it stopped,
// and the global runs after it.
func TestShardSetStopSkipsGlobal(t *testing.T) {
	set, err := NewShardSet(1, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	eng := set.Engine(0)
	var log []Time
	event := func(stop bool) Handler {
		return func() {
			log = append(log, eng.Now())
			if stop {
				eng.Stop()
			}
		}
	}
	eng.MustSchedule(0, event(false))
	eng.MustSchedule(5, event(true))
	eng.MustSchedule(7, event(false))
	if err := set.ScheduleGlobal(8, func() { log = append(log, -eng.Now()) }); err != nil {
		t.Fatal(err)
	}
	var hooks []Time
	err = set.Run(Second, func(end Time) bool {
		hooks = append(hooks, eng.Now())
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []Time{0, 5, 7, -8}; !slices.Equal(log, want) {
		t.Fatalf("executed %v, want %v (a negative entry is the global)", log, want)
	}
	if len(hooks) == 0 || hooks[0] != 5 {
		t.Fatalf("hook clocks %v, want the first at the stop instant 5", hooks)
	}
}
