package sim

import "fmt"

// Lane is a sorted FIFO beside the agenda heap; the package comment's
// "Sorted queues" section says why its order needs no sift and merges
// exactly with the heap's. Its entries live inline in a FIFO ring that
// grows to the lane's high-water mark and is then reused, so a
// steady-state schedule→execute cycle allocates nothing.
//
// Most lanes are fixed-delay lanes (Engine.Lane). The engine also keeps
// two kinds of lane it feeds itself, both with a negative delay so that
// Engine.Lane never hands them out: the shard exchange's inbox
// (Engine.deliver) and one cursor per pre-sorted stream
// (Engine.ScheduleSorted).
type Lane struct {
	eng   *Engine
	delay Time // the fixed delay; negative on the inbox and the cursors
	q     FIFO[entry]
	// cur is set on a cursor lane, whose q holds only the stream's head.
	cur *cursor
}

// cursor is the unread rest of a pre-sorted event stream: item i runs
// fn(arg) at the instant at that item(i) returns, with the i-th sequence
// number of the block ScheduleSorted reserved. The dispatch loop loads
// the next item as it pops the head.
type cursor struct {
	lane *Lane
	fn   ArgHandler
	item func(i int) (Time, any)
	next int    // the next item to load into the lane
	n    int    // the stream's length
	seq  uint64 // item next's sequence number
}

// Lane returns the engine's FIFO lane for events delayed by exactly delay,
// creating it on first use. Every caller asking for the same delay shares
// one lane, so the dispatch loop inspects one head per distinct delay. It
// panics on a negative delay.
func (e *Engine) Lane(delay Time) *Lane {
	if delay < 0 {
		panic(fmt.Errorf("sim: lane delay %v: %w", delay, ErrNegativeDelay))
	}
	for _, l := range e.lanes {
		if l.delay == delay {
			return l
		}
	}
	return e.addLane(delay)
}

// addLane appends a new lane to the dispatch loop's list.
func (e *Engine) addLane(delay Time) *Lane {
	l := &Lane{eng: e, delay: delay}
	e.lanes = append(e.lanes, l)
	return l
}

// ScheduleArg runs fn(arg) after the lane's delay. Like MustScheduleArg,
// it panics on a nil fn.
func (l *Lane) ScheduleArg(fn ArgHandler, arg any) {
	if fn == nil {
		panic(ErrNilHandler)
	}
	e := l.eng
	*l.q.Push() = entry{at: e.now + l.delay, seq: e.seq, fn: fn, arg: arg}
	e.seq++
	e.laneLen++
}

// pop removes and returns the lane's head; FIFO.Pop zeroes the vacated
// slot, so the garbage collector can reclaim its handler and argument.
func (l *Lane) pop() entry {
	l.eng.laneLen--
	return l.q.Pop()
}

// load moves the stream's next item, if any, into the lane. It reports
// false when the stream has no item left to load.
func (c *cursor) load() bool {
	if c.next == c.n {
		return false
	}
	at, arg := c.item(c.next)
	*c.lane.q.Push() = entry{at: at, seq: c.seq, fn: c.fn, arg: arg}
	c.next++
	c.seq++
	return true
}

// dropCursor removes an exhausted cursor's empty lane from the dispatch
// loop's list, so that next() scans no dead head for the rest of the run.
// Keys are unique, so the list's order is immaterial to next().
func (e *Engine) dropCursor(l *Lane) {
	e.cursorRan += uint64(l.cur.n)
	for i, x := range e.lanes {
		if x == l {
			last := len(e.lanes) - 1
			e.lanes[i] = e.lanes[last]
			e.lanes[last] = nil
			e.lanes = e.lanes[:last]
			return
		}
	}
}

// ScheduleSorted schedules n events whose instants are already sorted:
// event i runs fn(arg) at instant at, where at, arg = item(i). It orders
// them exactly as n ScheduleArgAt calls in index order would, taking the
// same block of n sequence numbers, but holds them as a cursor over item
// rather than as n agenda entries: the engine keeps one event loaded and
// calls item(i) once more as event i becomes the head. item must return
// the same values every time it is called with an index, until the event
// has run. The instants must be nondecreasing and not before now; it
// checks them all, and that n is not negative, before scheduling any. The
// cursor's lane is dropped once its last event has run.
func (e *Engine) ScheduleSorted(n int, fn ArgHandler, item func(i int) (Time, any)) error {
	if fn == nil || item == nil {
		return ErrNilHandler
	}
	if n < 0 {
		return fmt.Errorf("sim: sorted stream of %d events: %w", n, ErrNegativeCount)
	}
	prev := e.now
	for i := 0; i < n; i++ {
		at, _ := item(i)
		if at < prev {
			return fmt.Errorf("sim: sorted event %d at %v before %v: %w", i, at, prev, ErrNegativeDelay)
		}
		prev = at
	}
	if n == 0 {
		return nil
	}
	c := &cursor{lane: e.addLane(-1), fn: fn, item: item, n: n, seq: e.seq}
	c.lane.cur = c
	c.load()
	e.seq += uint64(n)
	e.laneLen += n
	return nil
}

// deliver schedules a batch of cross-partition messages, which must be
// sorted by time (ties in the exchange's source order), on the
// engine's inbox lane: the messages take consecutive sequence numbers in
// batch order, as ScheduleArgAt calls in that order would. The inbox stays
// sorted by (time, seq). The batch lands after the inbox's tail when its
// first message is not before the tail; otherwise it is merged in from the
// tail, and every message, whose seq exceeds those already queued, goes
// after the queued entries due at its instant.
func (e *Engine) deliver(batch []xmsg) error {
	if len(batch) == 0 {
		return nil
	}
	if at := batch[0].at; at < e.now {
		return fmt.Errorf("sim: schedule at %v before now %v: %w", at, e.now, ErrNegativeDelay)
	}
	if e.inbox == nil {
		e.inbox = e.addLane(-1)
	}
	q := &e.inbox.q
	i := q.Len() - 1 // the last queued entry not yet moved
	for range batch {
		q.Push()
	}
	for j := len(batch) - 1; j >= 0; j-- {
		m := &batch[j]
		for ; i >= 0 && q.At(i).at > m.at; i-- {
			*q.At(i + j + 1) = *q.At(i)
		}
		*q.At(i + j + 1) = entry{at: m.at, seq: e.seq + uint64(j), fn: m.fn, arg: m.arg}
	}
	e.delivered += uint64(len(batch))
	e.seq += uint64(len(batch))
	e.laneLen += len(batch)
	return nil
}
