package sim

import (
	"sort"
	"testing"
)

// refExec is a reference scheduler: a plain slice sorted by (at, seq) with
// explicit tombstones. It is obviously correct and allocation-happy; the
// engine must match its execution order exactly.
type refExec struct {
	events []refEvent
}

type refEvent struct {
	at   Time
	seq  uint64
	id   int
	dead bool
}

func (r *refExec) run(upTo Time) []int {
	sort.SliceStable(r.events, func(i, j int) bool {
		if r.events[i].at != r.events[j].at {
			return r.events[i].at < r.events[j].at
		}
		return r.events[i].seq < r.events[j].seq
	})
	var order []int
	rest := r.events[:0]
	for _, ev := range r.events {
		if ev.dead {
			continue
		}
		if ev.at > upTo {
			rest = append(rest, ev)
			continue
		}
		order = append(order, ev.id)
	}
	r.events = append([]refEvent(nil), rest...)
	return order
}

// TestEngineRandomizedScheduleTombstoneDeterminism drives the engine and
// the reference executor with the same pseudo-random schedule/tombstone
// workload (heavy timestamp ties, ~60% of each round's events withdrawn by
// a tombstone that their handler checks) and requires identical execution
// orders — and identical orders again on a second engine run with the same
// seed. A third of the events ride one to three fixed-delay lanes: the
// delays include zero and values the heap's random delays also draw, so
// lane heads and heap tops tie at one instant and only the sequence number
// orders them.
func TestEngineRandomizedScheduleTombstoneDeterminism(t *testing.T) {
	laneDelays := []Time{0, 7, 23}
	for _, seed := range []uint64{1, 2, 3, 17, 99} {
		seed := seed
		run := func() []int {
			rng := NewRNG(seed)
			e := NewEngine()
			ref := refExec{}
			var got []int
			var dead []bool // by id: the event's handler skips its work
			var lanes []*Lane
			for _, d := range laneDelays[:1+seed%3] {
				lanes = append(lanes, e.Lane(d))
			}
			record := func(arg any) {
				if id := arg.(int); !dead[id] {
					got = append(got, id)
				}
			}
			id := 0
			seq := uint64(0)
			for round := 0; round < 30; round++ {
				for i := 0; i < 80; i++ {
					myID := id
					id++
					dead = append(dead, false)
					if rng.Intn(3) == 0 {
						l := lanes[rng.Intn(len(lanes))]
						l.ScheduleArg(record, myID)
						ref.events = append(ref.events, refEvent{at: e.Now() + l.delay, seq: seq, id: myID})
						seq++
						continue
					}
					at := e.Now() + Time(rng.Intn(50))
					e.MustSchedule(at-e.Now(), func() { record(myID) })
					ref.events = append(ref.events, refEvent{at: at, seq: seq, id: myID})
					seq++
				}
				// Tombstone ~60% of this round's events, lane and heap
				// alike; some picks have already run and change nothing.
				for i := 0; i < 48; i++ {
					k := rng.Intn(len(dead))
					dead[k] = true
					for j := range ref.events {
						if ref.events[j].id == k {
							ref.events[j].dead = true
						}
					}
				}
				deadline := e.Now() + Time(rng.Intn(60))
				e.RunUntil(deadline)
				want := ref.run(deadline)
				if len(got) != len(want) {
					t.Fatalf("seed %d round %d: engine ran %d events, reference %d", seed, round, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d round %d: order[%d] = %d, reference %d", seed, round, i, got[i], want[i])
					}
				}
				got = got[:0]
			}
			e.Run()
			final := ref.run(1 << 62)
			if len(got) != len(final) {
				t.Fatalf("seed %d drain: engine %d events, reference %d", seed, len(got), len(final))
			}
			for i := range final {
				if got[i] != final[i] {
					t.Fatalf("seed %d drain: order[%d] = %d, reference %d", seed, i, got[i], final[i])
				}
			}
			return got
		}
		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("seed %d: two identical runs diverged in length", seed)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: two identical runs diverged at %d", seed, i)
			}
		}
	}
}

// TestScheduleArgMatchesSchedule proves the closure-free variant interleaves
// with Schedule in exact (time, seq) order.
func TestScheduleArgMatchesSchedule(t *testing.T) {
	e := NewEngine()
	var order []int
	recordArg := func(arg any) { order = append(order, arg.(int)) }
	// Alternate the two APIs at colliding timestamps; FIFO must hold across
	// the API boundary.
	for i := 0; i < 20; i++ {
		i := i
		if i%2 == 0 {
			e.MustScheduleArg(Time(7), recordArg, i)
		} else {
			e.MustSchedule(Time(7), func() { order = append(order, i) })
		}
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed-API same-instant order %v; want scheduling order", order)
		}
	}
}

func TestScheduleArgErrors(t *testing.T) {
	e := NewEngine()
	if err := e.ScheduleArg(-1, func(any) {}, nil); err != ErrNegativeDelay {
		t.Fatalf("negative delay error = %v", err)
	}
	if err := e.ScheduleArg(1, nil, nil); err != ErrNilHandler {
		t.Fatalf("nil handler error = %v", err)
	}
	if err := e.ScheduleAt(1, nil); err != ErrNilHandler {
		t.Fatalf("nil handler error = %v", err)
	}
}

// TestPendingLiveAccounting pins Pending across the heap, the lanes, the
// inbox and a stream: every scheduled or pushed event counts until it
// runs, and every pending event runs.
func TestPendingLiveAccounting(t *testing.T) {
	e := NewEngine()
	const n, laned, inboxed, streamed = 256, 10, 6, 20
	for i := 0; i < n; i++ {
		e.MustSchedule(Time(i+1), func() {})
	}
	noopArg := func(any) {}
	for i := 0; i < laned; i++ {
		e.Lane(Time(i%3)).ScheduleArg(noopArg, nil)
	}
	// Inbox events at 50..55 and 150..155, stream events at 0, 10, ..., 190.
	for _, base := range []Time{150, 50} {
		batch := make([]xmsg, inboxed/2)
		for i := range batch {
			batch[i] = xmsg{at: base + Time(i), fn: noopArg}
		}
		if err := e.deliver(batch); err != nil {
			t.Fatal(err)
		}
	}
	str, err := e.Stream(streamed, noopArg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < streamed; i++ {
		if err := str.Push(i, Time(10*i), nil); err != nil {
			t.Fatal(err)
		}
	}
	const total = n + laned + inboxed + streamed
	if e.Pending() != total || e.Scheduled() != total {
		t.Fatalf("pending=%d scheduled=%d, want %d/%d", e.Pending(), e.Scheduled(), total, total)
	}
	// The lane events (delays 0..2), the heap events at 1..100, the first
	// inbox batch and the stream events at 0..100 run.
	if ran := e.RunUntil(100); ran != 100+laned+inboxed/2+11 || e.Pending() != total-int(ran) {
		t.Fatalf("RunUntil(100): ran %d pending %d, want %d/%d", ran, e.Pending(), 100+laned+inboxed/2+11, total-int(ran))
	}
	want := EventCounts{Heap: 100, Lanes: laned, Inbox: inboxed / 2, Cursor: 11}
	if got := e.Events(); got != want {
		t.Fatalf("RunUntil(100): events %+v, want %+v", got, want)
	}
	if ran := e.Run(); e.Pending() != 0 || e.Executed() != total {
		t.Fatalf("drain: ran %d pending %d executed %d, want 0 pending, %d executed", ran, e.Pending(), e.Executed(), total)
	}
	want = EventCounts{Heap: n, Lanes: laned, Inbox: inboxed, Cursor: streamed}
	if got := e.Events(); got != want {
		t.Fatalf("drain: events %+v, want %+v", got, want)
	}
	// The stream is complete (its last index was pushed), so its lane is
	// dropped once empty; the three fixed-delay lanes and the inbox stay.
	for _, l := range e.lanes {
		if l.str != nil {
			t.Fatal("drain: a complete stream's lane is still dispatched")
		}
	}
	if len(e.lanes) != 4 {
		t.Fatalf("drain: %d lanes, want 4", len(e.lanes))
	}
}

// TestEngineZeroAllocSteadyState asserts the acceptance criterion directly:
// once the heap has grown, a schedule→execute cycle through
// either API performs zero heap allocations.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	noop := func() {}
	noopArg := func(any) {}
	arg := new(int)
	// Warm the heap.
	for i := 0; i < 256; i++ {
		e.MustSchedule(Time(i%13), noop)
	}
	e.Run()
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.MustSchedule(Time(i%7), noop)
			e.MustScheduleArg(Time(i%11), noopArg, arg)
		}
		e.Run()
	}); allocs != 0 {
		t.Fatalf("schedule→execute steady state allocates %.1f times per run, want 0", allocs)
	}
	// Lane rings grow once to their high-water mark and are then reused,
	// so lane schedule→execute, interleaved with the heap, allocates 0.
	lanes := []*Lane{e.Lane(0), e.Lane(5), e.Lane(11)}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			lanes[i%3].ScheduleArg(noopArg, arg)
			e.MustScheduleArg(Time(i%11), noopArg, arg)
		}
		e.Run()
	}); allocs != 0 {
		t.Fatalf("lane schedule→execute steady state allocates %.1f times per run, want 0", allocs)
	}
}

// BenchmarkEngineScheduleArgRun is the closure-free twin of
// BenchmarkEngineScheduleRun; both must report 0 allocs/op.
func BenchmarkEngineScheduleArgRun(b *testing.B) {
	e := NewEngine()
	fn := func(any) {}
	arg := new(int)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.MustScheduleArg(Time(i%97), fn, arg)
		if e.Pending() > 4096 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineLaneRun is BenchmarkEngineScheduleArgRun with a share of
// the events on fixed-delay lanes, the fabric's link-hop and accelerator
// pattern: three lanes and the heap interleave, and it must report 0
// allocs/op.
func BenchmarkEngineLaneRun(b *testing.B) {
	e := NewEngine()
	fn := func(any) {}
	arg := new(int)
	lanes := []*Lane{e.Lane(30), e.Lane(1), e.Lane(5)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%8 == 0 {
			e.MustScheduleArg(Time(i%97), fn, arg)
		} else {
			lanes[i%3].ScheduleArg(fn, arg)
		}
		if e.Pending() > 4096 {
			e.RunUntil(e.Now() + 40)
		}
	}
	e.Run()
}
