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
// (Engine.deliver) and one lane per stream (Engine.Stream).
type Lane struct {
	eng   *Engine
	delay Time // the fixed delay; negative on the inbox and the streams
	q     FIFO[entry]
	// str is set on a stream's lane.
	str *Stream
}

// Stream is an appendable sorted lane: a block of n sequence numbers
// reserved when Engine.Stream opened it, and the events pushed so far.
// Item i runs fn(arg) with the block's i-th sequence number, so it orders
// exactly as the i-th of n ScheduleArgAt calls made at the opening would,
// while the lane holds only what has been pushed and not yet run.
type Stream struct {
	lane *Lane
	fn   ArgHandler
	base uint64 // item 0's sequence number
	next int    // the smallest index Push accepts; n once closed
	n    int
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

// dropLane removes a closed stream's empty lane from the dispatch loop's
// list, so that next() scans no dead head for the rest of the run. Keys
// are unique, so the list's order is immaterial to next().
func (e *Engine) dropLane(l *Lane) {
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

// Stream opens a stream of up to n events, each running fn(arg) at the
// instant it is pushed with: it reserves the next n sequence numbers, so
// events pushed later order, at equal instants, before every event
// scheduled after the opening. The caller pushes the items in index
// order, in as many batches as it likes, and closes the stream; its lane
// is dropped once it is closed and empty.
func (e *Engine) Stream(n int, fn ArgHandler) (*Stream, error) {
	if fn == nil {
		return nil, ErrNilHandler
	}
	if n < 0 {
		return nil, fmt.Errorf("sim: stream of %d events: %w", n, ErrNegativeCount)
	}
	s := &Stream{lane: e.addLane(-1), fn: fn, base: e.seq, n: n}
	s.lane.str = s
	e.seq += uint64(n)
	return s, nil
}

// Push appends item i, due at instant at with argument arg. The index must
// exceed every index pushed before and be below the stream's length (so
// nothing can be pushed once the stream is closed), and the instant must
// be neither before the last one pushed nor before now.
func (s *Stream) Push(i int, at Time, arg any) error {
	if i < s.next || i >= s.n {
		return fmt.Errorf("sim: stream item %d outside [%d, %d): %w", i, s.next, s.n, ErrStreamIndex)
	}
	l := s.lane
	last := l.eng.now
	if q := &l.q; q.Len() > 0 && q.At(q.Len()-1).at > last {
		last = q.At(q.Len() - 1).at
	}
	if at < last {
		return fmt.Errorf("sim: stream item %d at %v before %v: %w", i, at, last, ErrNegativeDelay)
	}
	*l.q.Push() = entry{at: at, seq: s.base + uint64(i), fn: s.fn, arg: arg}
	s.next = i + 1
	l.eng.laneLen++
	l.eng.streamed++
	return nil
}

// Len returns how many pushed items have yet to run.
func (s *Stream) Len() int { return s.lane.q.Len() }

// Close ends the stream: nothing more can be pushed, and the lane is
// dropped as soon as its last pushed item has run.
func (s *Stream) Close() {
	s.next = s.n
	if s.lane.q.Len() == 0 {
		s.lane.eng.dropLane(s.lane)
	}
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
