package sim

import "fmt"

// Lane is a fixed-delay FIFO beside the agenda heap; the package comment's
// "Fixed-delay lanes" section says why its order needs no sift and merges
// exactly with the heap's. Its entries live inline in a FIFO ring that
// grows to the lane's high-water mark and is then reused, so a
// steady-state schedule→execute cycle allocates nothing.
type Lane struct {
	eng   *Engine
	delay Time
	q     FIFO[entry]
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
