package sim

import (
	"sort"
	"testing"
)

// TestEventRefStaleAfterReuse pins the generation-handle contract: once an
// event has executed and its arena slot has been recycled by a later event,
// the stale ref must answer Live() == false and Cancel() == false, and the
// slot's new occupant must be unaffected.
func TestEventRefStaleAfterReuse(t *testing.T) {
	e := NewEngine()
	ranA := false
	refA := e.MustSchedule(1, func() { ranA = true })
	e.Run()
	if !ranA {
		t.Fatal("first event did not run")
	}
	if refA.Live() {
		t.Fatal("executed event still reports Live")
	}

	// The freed slot is on the free list; the next schedule reuses it.
	ranB := false
	refB := e.MustSchedule(1, func() { ranB = true })
	if refB.idx != refA.idx {
		t.Fatalf("slot not recycled: refA.idx=%d refB.idx=%d", refA.idx, refB.idx)
	}
	if refA.Live() {
		t.Fatal("stale ref reports Live after its slot was recycled")
	}
	if refA.Cancel() {
		t.Fatal("stale ref canceled the slot's new occupant")
	}
	if !refB.Live() {
		t.Fatal("recycled slot's new event lost its liveness to a stale ref")
	}
	e.Run()
	if !ranB {
		t.Fatal("stale ref's Cancel suppressed the recycled slot's event")
	}
}

// TestEventRefStaleAfterCancelAndReuse covers the cancel-then-recycle path:
// a canceled event's slot is reclaimed (by compaction or lazy discard), and
// the old ref must stay dead across the reuse.
func TestEventRefStaleAfterCancelAndReuse(t *testing.T) {
	e := NewEngine()
	ref := e.MustSchedule(5, func() {})
	if !ref.Cancel() {
		t.Fatal("cancel of a live event reported false")
	}
	e.Run() // discards the dead event, recycling its slot
	ran := false
	ref2 := e.MustSchedule(1, func() { ran = true })
	if ref2.idx != ref.idx {
		t.Fatalf("slot not recycled: %d vs %d", ref2.idx, ref.idx)
	}
	if ref.Live() || ref.Cancel() {
		t.Fatal("canceled ref came back to life on slot reuse")
	}
	e.Run()
	if !ran {
		t.Fatal("recycled slot's event did not run")
	}
}

// refExec is a reference scheduler: a plain slice sorted by (at, seq) with
// explicit dead marks. It is obviously correct and allocation-happy; the
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

// TestEngineRandomizedScheduleCancelDeterminism drives the engine and the
// reference executor with the same pseudo-random schedule/cancel workload
// (heavy timestamp ties, cancel rates high enough to trigger compaction)
// and requires identical execution orders — and identical orders again on a
// second engine run with the same seed. A third of the events ride one to
// three fixed-delay lanes: the delays include zero and values the heap's
// random delays also draw, so lane heads and heap tops tie at one instant
// and only the sequence number orders them.
func TestEngineRandomizedScheduleCancelDeterminism(t *testing.T) {
	laneDelays := []Time{0, 7, 23}
	for _, seed := range []uint64{1, 2, 3, 17, 99} {
		seed := seed
		run := func() []int {
			rng := NewRNG(seed)
			e := NewEngine()
			ref := refExec{}
			var got []int
			var refs []EventRef
			var lanes []*Lane
			for _, d := range laneDelays[:1+seed%3] {
				lanes = append(lanes, e.Lane(d))
			}
			record := func(arg any) { got = append(got, arg.(int)) }
			id := 0
			seq := uint64(0)
			for round := 0; round < 30; round++ {
				for i := 0; i < 80; i++ {
					myID := id
					id++
					if rng.Intn(3) == 0 {
						// Lane events cannot be canceled: a zero ref keeps
						// refs indexed by id.
						l := lanes[rng.Intn(len(lanes))]
						l.ScheduleArg(record, myID)
						refs = append(refs, EventRef{})
						ref.events = append(ref.events, refEvent{at: e.Now() + l.delay, seq: seq, id: myID})
						seq++
						continue
					}
					at := e.Now() + Time(rng.Intn(50))
					refs = append(refs, e.MustSchedule(at-e.Now(), func() { got = append(got, myID) }))
					ref.events = append(ref.events, refEvent{at: at, seq: seq, id: myID})
					seq++
				}
				// Cancel aggressively: ~60% of this round's events, so the
				// dead fraction crosses the compaction threshold often.
				for i := 0; i < 48; i++ {
					k := rng.Intn(len(refs))
					if refs[k].Cancel() {
						// Mirror into the reference model by id == index:
						// ids are assigned densely in scheduling order.
						for j := range ref.events {
							if ref.events[j].id == k {
								ref.events[j].dead = true
							}
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
	if _, err := e.ScheduleArg(-1, func(any) {}, nil); err != ErrNegativeDelay {
		t.Fatalf("negative delay error = %v", err)
	}
	if _, err := e.ScheduleArg(1, nil, nil); err != ErrNilHandler {
		t.Fatalf("nil handler error = %v", err)
	}
	if _, err := e.ScheduleAt(1, nil); err != ErrNilHandler {
		t.Fatalf("nil handler error = %v", err)
	}
}

// TestPendingLiveAccounting pins the Pending (raw agenda) versus Live
// (executable events) split and the eager-compaction trigger.
func TestPendingLiveAccounting(t *testing.T) {
	e := NewEngine()
	var refs []EventRef
	n := 4 * compactMinAgenda
	for i := 0; i < n; i++ {
		refs = append(refs, e.MustSchedule(Time(i+1), func() {}))
	}
	if e.Pending() != n || e.Live() != n {
		t.Fatalf("pending=%d live=%d, want %d/%d", e.Pending(), e.Live(), n, n)
	}
	// Cancel just under half: no compaction, dead events stay on the agenda.
	half := n / 2
	for i := 0; i < half; i++ {
		refs[i].Cancel()
	}
	if e.Pending() != n || e.Live() != n-half {
		t.Fatalf("after %d cancels: pending=%d live=%d, want %d/%d", half, e.Pending(), e.Live(), n, n-half)
	}
	// One more cancel tips dead count past half the agenda: compaction must
	// shrink Pending down to Live.
	refs[half].Cancel()
	if e.Pending() != e.Live() || e.Live() != n-half-1 {
		t.Fatalf("after compaction: pending=%d live=%d, want both %d", e.Pending(), e.Live(), n-half-1)
	}
	// Lane events count toward both Pending and Live, and compaction
	// leaves them alone.
	const laned = 10
	noopArg := func(any) {}
	for i := 0; i < laned; i++ {
		e.Lane(Time(i%3)).ScheduleArg(noopArg, nil)
	}
	live := n - half - 1 + laned
	if e.Pending() != live || e.Live() != live || e.Scheduled() != uint64(n+laned) {
		t.Fatalf("with %d lane events: pending=%d live=%d scheduled=%d, want %d/%d/%d",
			laned, e.Pending(), e.Live(), e.Scheduled(), live, live, n+laned)
	}
	// The surviving events still run, in order.
	ran := uint64(0)
	eBefore := e.Executed()
	e.Run()
	ran = e.Executed() - eBefore
	if int(ran) != live {
		t.Fatalf("ran %d events after compaction, want %d", ran, live)
	}
	if e.Pending() != 0 || e.Live() != 0 {
		t.Fatalf("drained: pending=%d live=%d", e.Pending(), e.Live())
	}
}

// TestEngineZeroAllocSteadyState asserts the acceptance criterion directly:
// once the arena and heap have grown, a schedule→execute cycle through
// either API performs zero heap allocations.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	noop := func() {}
	noopArg := func(any) {}
	arg := new(int)
	// Warm the arena and heap.
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
	// Cancel-heavy steady state (compaction included) is allocation-free
	// too.
	refs := make([]EventRef, 0, 512)
	if allocs := testing.AllocsPerRun(100, func() {
		refs = refs[:0]
		for i := 0; i < 256; i++ {
			refs = append(refs, e.MustSchedule(Time(i%17), noop))
		}
		for i := 0; i < 200; i++ {
			refs[i].Cancel()
		}
		e.Run()
	}); allocs != 0 {
		t.Fatalf("cancel/compact steady state allocates %.1f times per run, want 0", allocs)
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

// BenchmarkEngineCancelCompact stresses the cancel→compact path: most
// scheduled events are canceled before they run, the C3-timeout pattern
// that motivated eager compaction.
func BenchmarkEngineCancelCompact(b *testing.B) {
	e := NewEngine()
	noop := func() {}
	refs := make([]EventRef, 0, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		refs = append(refs, e.MustSchedule(Time(i%97), noop))
		if len(refs) == 1024 {
			for j := 0; j < 1000; j++ {
				refs[j].Cancel()
			}
			e.Run()
			refs = refs[:0]
		}
	}
	e.Run()
}
