// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps an agenda of timestamped events and executes them in
// nondecreasing time order. Events scheduled for the same instant run in
// the order they were scheduled (FIFO), which makes runs fully deterministic
// for a fixed seed and schedule order.
//
// # Engine internals
//
// Events are fire-and-forget: once scheduled, an event runs at its
// instant, and nothing can withdraw it. A model that may no longer want an
// event's work checks its own state in the handler (a tombstone), and the
// skipped event has still taken its sequence number, so the order of every
// other event is the same as if it had been withdrawn. Every pending event
// is one inline entry {at, seq, fn, arg}: the (time, seq) ordering key
// beside the handler and its argument. The priority queue is a 4-ary
// min-heap of those entries, so there is no slab of event records, free
// list or handle beside it. A plain Handler rides as the argument of one
// shared trampoline, so both APIs store the same entry. Once the heap has
// grown to the simulation's high-water mark, scheduling and executing
// events performs no heap allocations at all; the closure-free ScheduleArg
// variant extends that to call sites that would otherwise allocate a
// capturing closure per event.
//
// # Sorted queues
//
// Beside the heap, the engine keeps sorted FIFO lanes, and the dispatch
// loop pops the smallest key among the heap top and the lane heads. Keys
// are unique, so the merged order is exactly the order one heap holding
// every event would produce: moving events from the heap onto a lane
// changes no execution order, as long as each lane stays sorted by
// (time, seq). Three kinds of lane keep that invariant:
//
//   - A fixed-delay lane per delay a caller asked for (Engine.Lane). An
//     event on it is due at now+delay; the clock never moves backwards and
//     every event takes the next value of the engine's one sequence
//     counter, so appending keeps the lane sorted with no sift.
//   - The inbox, which takes the shard exchange's cross-partition
//     deliveries (ShardSet.drain). A batch arrives sorted with fresh,
//     consecutive seqs; it is appended when it starts no earlier than the
//     inbox's tail and merged in from the tail otherwise.
//   - A lane per stream (Engine.Stream): the stream reserves a block of
//     seqs when it opens, and its owner pushes items in index order and
//     nondecreasing time, in batches, taking the item's seq from the
//     block. The lane holds only what has been pushed, and is dropped
//     once the stream is closed and empty.
//
// The heap keeps everything else: variable delays and absolute ScheduleAt
// instants. An engine that never receives an exchange delivery or a
// stream has no inbox or stream lane, so they cost it nothing.
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
	// ErrNegativeCount reports a stream of negative length.
	ErrNegativeCount = errors.New("sim: negative event count")
	// ErrStreamIndex reports a stream item pushed out of index order,
	// beyond the stream's length, or after the stream was closed.
	ErrStreamIndex = errors.New("sim: stream index out of order")
)

// entry is one pending event, on the heap or on a lane: the (time, seq)
// ordering key beside the handler and its argument.
type entry struct {
	at  Time
	seq uint64
	fn  ArgHandler
	arg any
}

// callHandler is the trampoline that runs a plain Handler carried as an
// entry's argument. A func value is pointer-shaped, so storing it in the
// argument allocates nothing.
func callHandler(arg any) { arg.(Handler)() }

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; simulations are deterministic single-goroutine programs.
type Engine struct {
	now Time
	seq uint64 // the next event's sequence number: events scheduled so far

	heap []entry // 4-ary min-heap keyed by (at, seq)

	lanes   []*Lane // sorted FIFOs beside the heap: see Sorted queues
	laneLen int     // pending events across all lanes
	inbox   *Lane   // the exchange's deliveries; nil until the first

	// heapRan, delivered and streamed count the events executed off the
	// heap, the messages delivered into the inbox and the items pushed
	// onto streams, for Events.
	heapRan, delivered, streamed uint64

	executed uint64
	stopped  bool
}

// NewEngine returns an engine with the clock at zero and an empty agenda.
func NewEngine() *Engine {
	return &Engine{heap: make([]entry, 0, 1024)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events waiting to run, heap and lanes
// (the inbox and the items pushed onto streams included).
func (e *Engine) Pending() int { return len(e.heap) + e.laneLen }

// stamp changes whenever an event is scheduled or pushed onto a stream,
// so a cached earliest-event time taken at an equal stamp is still valid
// unless events have run since.
func (e *Engine) stamp() uint64 { return e.seq + e.streamed }

// Executed returns how many events have run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Scheduled returns how many events have been scheduled so far, counting
// every sequence number a stream reserved.
func (e *Engine) Scheduled() uint64 { return e.seq }

// EventCounts splits an engine's executed events by the queue that held
// them (see Sorted queues in the package comment).
type EventCounts struct {
	Heap   uint64 `json:"heap"`
	Lanes  uint64 `json:"lanes"`  // fixed-delay lanes
	Inbox  uint64 `json:"inbox"`  // exchange deliveries
	Cursor uint64 `json:"cursor"` // streams
}

// Add returns the sum of two counts.
func (c EventCounts) Add(o EventCounts) EventCounts {
	return EventCounts{c.Heap + o.Heap, c.Lanes + o.Lanes, c.Inbox + o.Inbox, c.Cursor + o.Cursor}
}

// Events returns the executed events by queue. They sum to Executed.
func (e *Engine) Events() EventCounts {
	c := EventCounts{Heap: e.heapRan, Inbox: e.delivered, Cursor: e.streamed}
	for _, l := range e.lanes {
		switch {
		case l == e.inbox:
			c.Inbox -= uint64(l.q.Len())
		case l.str != nil:
			c.Cursor -= uint64(l.q.Len())
		}
	}
	c.Lanes = e.executed - c.Heap - c.Inbox - c.Cursor
	return c
}

// Schedule runs fn after delay ticks of simulated time. A zero delay runs fn
// after all handlers already scheduled for the current instant. Negative
// delays are an error.
func (e *Engine) Schedule(delay Time, fn Handler) error {
	if delay < 0 {
		return ErrNegativeDelay
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at the absolute instant at. Scheduling in the past is
// an error.
func (e *Engine) ScheduleAt(at Time, fn Handler) error {
	if fn == nil {
		return ErrNilHandler
	}
	return e.ScheduleArgAt(at, callHandler, fn)
}

// ScheduleArg runs fn(arg) after delay ticks of simulated time. It is the
// closure-free variant of Schedule: with a long-lived fn value and a
// pointer-typed arg, scheduling allocates nothing, where an equivalent
// capturing closure would allocate on every call.
func (e *Engine) ScheduleArg(delay Time, fn ArgHandler, arg any) error {
	if delay < 0 {
		return ErrNegativeDelay
	}
	return e.ScheduleArgAt(e.now+delay, fn, arg)
}

// ScheduleArgAt runs fn(arg) at the absolute instant at.
func (e *Engine) ScheduleArgAt(at Time, fn ArgHandler, arg any) error {
	if fn == nil {
		return ErrNilHandler
	}
	if at < e.now {
		return fmt.Errorf("sim: schedule at %v before now %v: %w", at, e.now, ErrNegativeDelay)
	}
	e.heapPush(entry{at: at, seq: e.seq, fn: fn, arg: arg})
	e.seq++
	return nil
}

// MustSchedule is Schedule for callers that guarantee a nonnegative delay,
// which is the common case inside simulation code. It panics on negative
// delay, which indicates a programming error rather than a runtime
// condition.
func (e *Engine) MustSchedule(delay Time, fn Handler) {
	if err := e.Schedule(delay, fn); err != nil {
		panic(err)
	}
}

// MustScheduleArg is ScheduleArg with the MustSchedule error contract.
func (e *Engine) MustScheduleArg(delay Time, fn ArgHandler, arg any) {
	if err := e.ScheduleArg(delay, fn, arg); err != nil {
		panic(err)
	}
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

// runThrough is the engine's one dispatch loop: it executes events in
// (time, seq) order while their timestamps are not after last and Stop has
// not been called. Each event costs one next() selection among the heap
// top and the lane heads; popping the last item of a closed stream drops
// the stream's lane. It returns the number of events executed.
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
		var ent entry
		if lane != nil {
			ent = lane.pop()
			if s := lane.str; s != nil && s.next == s.n && lane.q.Len() == 0 {
				e.dropLane(lane)
			}
		} else {
			e.heapRan++
			ent = e.heapPop()
		}
		ent.fn(ent.arg)
	}
	return e.executed - start
}

// NextEventAt returns the earliest pending event's timestamp, heap or
// lane, if any.
func (e *Engine) NextEventAt() (Time, bool) {
	_, at, ok := e.next()
	return at, ok
}

// AdvanceTo lifts the clock to t without executing anything. Advancing past
// a pending event would rewind causality, so it panics — callers (barrier
// synchronization in the sharded engine) must have executed every event
// before t first. Advancing to the past is a no-op.
func (e *Engine) AdvanceTo(t Time) {
	if t <= e.now {
		return
	}
	if at, ok := e.NextEventAt(); ok && at < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) with event pending at %v", t, at))
	}
	e.now = t
}

// next picks the earliest pending event by (time, seq) among the heap top
// and the lane heads (inbox and streams included). lane is the lane
// holding it, nil when it is the heap top; ok is false when nothing is
// pending. Keys are unique per event, so the pick is the one a single
// heap holding every event would pop.
func (e *Engine) next() (lane *Lane, at Time, ok bool) {
	var seq uint64
	if len(e.heap) > 0 {
		at, seq, ok = e.heap[0].at, e.heap[0].seq, true
	}
	if e.laneLen == 0 {
		return nil, at, ok
	}
	for _, l := range e.lanes {
		if l.q.Len() == 0 {
			continue
		}
		h := l.q.At(0)
		if !ok || h.at < at || (h.at == at && h.seq < seq) {
			lane, at, seq, ok = l, h.at, h.seq, true
		}
	}
	return lane, at, ok
}
