// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps an agenda of timestamped events and executes them in
// nondecreasing time order. Events scheduled for the same instant run in
// the order they were scheduled (FIFO), which makes runs fully deterministic
// for a fixed seed and schedule order.
//
// # Engine internals
//
// The scheduler is built for a zero-allocation steady state: events live in
// a per-engine arena (a slab of event slots recycled through a free list),
// the priority queue is a 4-ary min-heap of int32 indices into that arena,
// and EventRef handles carry an {index, generation} pair instead of a
// pointer — each slot's generation counter is bumped when the slot is
// recycled, so a stale handle to an executed or canceled event can neither
// cancel nor observe its slot's next occupant. Once the arena and heap have
// grown to the simulation's high-water mark, scheduling and executing
// events performs no heap allocations at all; the closure-free ScheduleArg
// variant extends that to call sites that would otherwise allocate a
// capturing closure per event.
//
// # Fixed-delay lanes
//
// Beside the heap, the engine keeps one FIFO Lane per fixed delay that a
// caller asked for (Engine.Lane). An event on a lane is due at now+delay;
// the clock never moves backwards and every event takes the next value of
// the engine's one sequence counter, so each lane is already sorted by
// (time, seq) and needs no sift. The dispatch loop pops the smallest key
// among the heap top and the lane heads. Keys are unique, so the merged
// order is exactly the order one heap holding every event would produce:
// moving a call site from ScheduleArg onto a lane changes no execution
// order. Lane events cannot be canceled and hold no arena slot. The heap
// keeps everything else — cancellable timers, variable delays, absolute
// ScheduleAt instants, and the shard exchange's cross-partition deliveries,
// whose instants are not monotone in the destination engine.
//
// # Compaction policy
//
// Cancel marks an event dead in place; dead events are normally discarded
// lazily when they reach the top of the heap. To keep a cancel-heavy
// workload (for example C3 timeout timers that almost always cancel) from
// bloating the agenda, the engine compacts eagerly as well: whenever the
// number of dead events on the agenda exceeds half its length (and the
// agenda is at least compactMinAgenda long, to avoid thrashing tiny
// agendas), every dead event is dropped and the heap is rebuilt in place in
// O(n). Compaction never changes execution order — order is fully
// determined by the (time, sequence) key, which is unique per event — so
// lazy and eager discarding produce bit-identical runs. Pending reports the
// raw agenda length including not-yet-discarded dead events; Live reports
// only the events that will actually execute.
package sim

import (
	"errors"
	"fmt"
)

// Time is a simulated instant measured in integer nanoseconds since the
// start of the simulation. Using integers avoids floating-point drift in
// long runs and makes event ordering exact.
type Time int64

// Common duration units expressed as Time deltas.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Float64Ms converts a simulated time to floating-point milliseconds.
func (t Time) Float64Ms() float64 { return float64(t) / float64(Millisecond) }

// Float64Us converts a simulated time to floating-point microseconds.
func (t Time) Float64Us() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with a millisecond unit, the natural scale of the
// experiments in this repository.
func (t Time) String() string { return fmt.Sprintf("%.3fms", t.Float64Ms()) }

// FromMs converts floating-point milliseconds to a Time delta.
func FromMs(ms float64) Time { return Time(ms * float64(Millisecond)) }

// FromUs converts floating-point microseconds to a Time delta.
func FromUs(us float64) Time { return Time(us * float64(Microsecond)) }

// FromSeconds converts floating-point seconds to a Time delta.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// Handler is the unit of simulated work. It runs at its scheduled instant
// with the engine's clock already advanced to that instant.
type Handler func()

// ArgHandler is the closure-free unit of simulated work: a plain function
// (or a func value created once and reused) invoked with the argument given
// at scheduling time. Hot paths use it with a pooled or long-lived pointer
// argument so that scheduling an event allocates nothing.
type ArgHandler func(arg any)

// Errors returned by the scheduler.
var (
	// ErrNegativeDelay reports an attempt to schedule an event in the past.
	ErrNegativeDelay = errors.New("sim: negative delay")
	// ErrNilHandler reports a schedule call without a handler.
	ErrNilHandler = errors.New("sim: nil handler")
)

// event is one arena slot: a scheduled handler plus the slot's generation.
// The (time, seq) ordering key lives in the event's heap entry.
type event struct {
	fn    Handler
	argFn ArgHandler
	arg   any
	gen   uint32
	dead  bool
}

// EventRef identifies a scheduled event so it can be canceled. The zero
// value refers to no event. A ref is a generation-checked handle: once its
// event has executed (or its canceled slot has been recycled), the ref goes
// permanently dead even if the arena slot is reused for a later event.
type EventRef struct {
	eng *Engine
	idx int32
	gen uint32
}

// Cancel marks the referenced event as dead; a dead event is skipped when
// its time comes (or dropped earlier by compaction). Canceling an
// already-executed, already-canceled, or zero ref is a no-op. It reports
// whether the event was live before the call.
func (r EventRef) Cancel() bool {
	if r.eng == nil {
		return false
	}
	ev := &r.eng.arena[r.idx]
	if ev.gen != r.gen || ev.dead {
		return false
	}
	ev.dead = true
	// Dead events keep no work alive.
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
	r.eng.deadInHeap++
	r.eng.maybeCompact()
	return true
}

// Live reports whether the referenced event is still pending.
func (r EventRef) Live() bool {
	if r.eng == nil {
		return false
	}
	ev := &r.eng.arena[r.idx]
	return ev.gen == r.gen && !ev.dead
}

// compactMinAgenda is the agenda length below which eager compaction is
// skipped: lazy top-of-heap discarding handles small agendas at no cost.
const compactMinAgenda = 64

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; simulations are deterministic single-goroutine programs.
type Engine struct {
	now Time
	seq uint64

	arena []event     // slab of event slots
	free  []int32     // recycled slot indices (LIFO)
	heap  []heapEntry // 4-ary min-heap keyed by (at, seq), arena index payload

	deadInHeap int // canceled events not yet discarded from the heap

	lanes   []*Lane // fixed-delay FIFOs beside the heap, one per delay
	laneLen int     // pending events across all lanes

	executed  uint64
	scheduled uint64
	stopped   bool
}

// NewEngine returns an engine with the clock at zero and an empty agenda.
func NewEngine() *Engine {
	return &Engine{
		arena: make([]event, 0, 1024),
		heap:  make([]heapEntry, 0, 1024),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the raw agenda length: lane events plus heap events,
// live or canceled but not yet discarded (lazily at the heap top, or
// eagerly by compaction). Use Live for the number of events that will
// actually run.
func (e *Engine) Pending() int { return len(e.heap) + e.laneLen }

// Live returns the number of pending events that will actually execute,
// excluding canceled events awaiting discard.
func (e *Engine) Live() int { return len(e.heap) - e.deadInHeap + e.laneLen }

// Executed returns how many events have run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Scheduled returns how many events have been scheduled so far.
func (e *Engine) Scheduled() uint64 { return e.scheduled }

// Schedule runs fn after delay ticks of simulated time. A zero delay runs fn
// after all handlers already scheduled for the current instant. It returns a
// reference usable to cancel the event and an error for negative delays.
func (e *Engine) Schedule(delay Time, fn Handler) (EventRef, error) {
	if delay < 0 {
		return EventRef{}, ErrNegativeDelay
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at the absolute instant at. Scheduling in the past is
// an error.
func (e *Engine) ScheduleAt(at Time, fn Handler) (EventRef, error) {
	if fn == nil {
		return EventRef{}, ErrNilHandler
	}
	return e.scheduleAt(at, fn, nil, nil)
}

// ScheduleArg runs fn(arg) after delay ticks of simulated time. It is the
// closure-free variant of Schedule: with a long-lived fn value and a
// pointer-typed arg, scheduling allocates nothing, where an equivalent
// capturing closure would allocate on every call.
func (e *Engine) ScheduleArg(delay Time, fn ArgHandler, arg any) (EventRef, error) {
	if delay < 0 {
		return EventRef{}, ErrNegativeDelay
	}
	return e.ScheduleArgAt(e.now+delay, fn, arg)
}

// ScheduleArgAt runs fn(arg) at the absolute instant at.
func (e *Engine) ScheduleArgAt(at Time, fn ArgHandler, arg any) (EventRef, error) {
	if fn == nil {
		return EventRef{}, ErrNilHandler
	}
	return e.scheduleAt(at, nil, fn, arg)
}

// scheduleAt allocates an arena slot for the event and pushes it on the
// agenda. Exactly one of fn and argFn is non-nil.
func (e *Engine) scheduleAt(at Time, fn Handler, argFn ArgHandler, arg any) (EventRef, error) {
	if at < e.now {
		return EventRef{}, fmt.Errorf("sim: schedule at %v before now %v: %w", at, e.now, ErrNegativeDelay)
	}
	idx := e.alloc()
	ev := &e.arena[idx]
	ev.fn = fn
	ev.argFn = argFn
	ev.arg = arg
	e.heapPush(heapEntry{at: at, seq: e.seq, idx: idx})
	e.seq++
	e.scheduled++
	return EventRef{eng: e, idx: idx, gen: ev.gen}, nil
}

// alloc returns a free arena slot, growing the slab when the free list is
// empty.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	e.arena = append(e.arena, event{})
	return int32(len(e.arena) - 1)
}

// release recycles an arena slot: the generation bump invalidates every
// outstanding EventRef to the slot's previous occupant, and the handler
// fields are cleared so the garbage collector can reclaim captured state.
func (e *Engine) release(idx int32) {
	ev := &e.arena[idx]
	ev.gen++
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
	ev.dead = false
	e.free = append(e.free, idx)
}

// MustSchedule is Schedule for callers that guarantee a nonnegative delay,
// which is the common case inside simulation code. It panics on negative
// delay, which indicates a programming error rather than a runtime
// condition.
func (e *Engine) MustSchedule(delay Time, fn Handler) EventRef {
	ref, err := e.Schedule(delay, fn)
	if err != nil {
		panic(err)
	}
	return ref
}

// MustScheduleArg is ScheduleArg with the MustSchedule error contract.
func (e *Engine) MustScheduleArg(delay Time, fn ArgHandler, arg any) EventRef {
	ref, err := e.ScheduleArg(delay, fn, arg)
	if err != nil {
		panic(err)
	}
	return ref
}

// Stop makes the current Run, RunUntil or RunBefore call return after the
// in-flight handler completes. The agenda is preserved, so the engine may
// be run again.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the agenda is exhausted or Stop is called. It
// returns the number of events executed by this call.
func (e *Engine) Run() uint64 { return e.runThrough(maxTime) }

// RunUntil executes events with timestamps not after deadline, then
// advances the clock to deadline — unless Stop was called, in which case
// the clock stays at the stopping instant. It returns the number of events
// executed by this call.
func (e *Engine) RunUntil(deadline Time) uint64 {
	n := e.runThrough(deadline)
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return n
}

// RunBefore executes events with timestamps strictly before end and leaves
// the clock at the last executed event's instant (events at end or later
// stay pending and the clock does not advance to them). It is the window
// primitive of the sharded engine: a partition runs RunBefore(windowEnd)
// for each synchronization window, and AdvanceTo lifts the clock at
// barriers. Stop aborts the window like it aborts Run. It returns the
// number of events executed by this call.
func (e *Engine) RunBefore(end Time) uint64 { return e.runThrough(end - 1) }

// runThrough is the engine's one dispatch loop: it executes live events in
// (time, seq) order while their timestamps are not after last and Stop has
// not been called. Each event costs one next() selection among the heap
// top and the lane heads. A heap event's arena slot is recycled before its
// handler runs, so a handler observing its own ref sees Live() == false.
// It returns the number of events executed.
func (e *Engine) runThrough(last Time) uint64 {
	e.stopped = false
	start := e.executed
	for !e.stopped {
		lane, at, ok := e.next()
		if !ok || at > last {
			break
		}
		e.now = at
		e.executed++
		if lane != nil {
			ent := lane.pop()
			ent.fn(ent.arg)
			continue
		}
		idx := e.heapPop()
		ev := &e.arena[idx]
		fn, argFn, arg := ev.fn, ev.argFn, ev.arg
		e.release(idx)
		if fn != nil {
			fn()
		} else {
			argFn(arg)
		}
	}
	return e.executed - start
}

// NextEventAt returns the earliest live pending event's timestamp, heap or
// lane, if any. Dead events encountered at the heap top are discarded as a
// side effect.
func (e *Engine) NextEventAt() (Time, bool) { return e.peekLive() }

// AdvanceTo lifts the clock to t without executing anything. Advancing past
// a live pending event would rewind causality, so it panics — callers
// (barrier synchronization in the sharded engine) must have executed every
// event before t first. Advancing to the past is a no-op.
func (e *Engine) AdvanceTo(t Time) {
	if t <= e.now {
		return
	}
	if at, ok := e.peekLive(); ok && at < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) with live event pending at %v", t, at))
	}
	e.now = t
}

// peekLive returns the earliest live event's timestamp, if any, discarding
// dead events from the top of the heap.
func (e *Engine) peekLive() (Time, bool) {
	_, at, ok := e.next()
	return at, ok
}

// next discards dead events from the top of the heap, then picks the
// earliest live event by (time, seq) among the heap top and the lane
// heads. lane is the lane holding it, nil when it is the heap top; ok is
// false when nothing is pending. Keys are unique per event, so the pick is
// the one a single heap holding every event would pop.
func (e *Engine) next() (lane *Lane, at Time, ok bool) {
	for len(e.heap) > 0 {
		top := e.heap[0]
		if !e.arena[top.idx].dead {
			break
		}
		e.heapPop()
		e.deadInHeap--
		e.release(top.idx)
	}
	var seq uint64
	if len(e.heap) > 0 {
		at, seq, ok = e.heap[0].at, e.heap[0].seq, true
	}
	if e.laneLen == 0 {
		return nil, at, ok
	}
	for _, l := range e.lanes {
		if l.n == 0 {
			continue
		}
		h := &l.buf[l.head]
		if !ok || h.at < at || (h.at == at && h.seq < seq) {
			lane, at, seq, ok = l, h.at, h.seq, true
		}
	}
	return lane, at, ok
}

// maybeCompact applies the compaction policy documented in the package
// comment: drop every dead event and rebuild the heap once dead events
// outnumber live ones on a non-trivial agenda.
func (e *Engine) maybeCompact() {
	if len(e.heap) < compactMinAgenda || 2*e.deadInHeap <= len(e.heap) {
		return
	}
	e.compact()
}

// compact removes all dead events from the agenda and re-establishes the
// heap invariant in place, in O(n). The (time, seq) key is unique per
// event, so the rebuilt heap pops in exactly the order the lazy path would
// have produced.
func (e *Engine) compact() {
	kept := e.heap[:0]
	for _, ent := range e.heap {
		if e.arena[ent.idx].dead {
			e.release(ent.idx)
			continue
		}
		kept = append(kept, ent)
	}
	e.heap = kept
	e.deadInHeap = 0
	for i := (len(kept) - 2) / heapArity; i >= 0; i-- {
		e.heapDown(i)
	}
}
