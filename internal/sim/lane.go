package sim

import "fmt"

// Lane is a fixed-delay FIFO beside the agenda heap; the package comment's
// "Fixed-delay lanes" section says why its order needs no sift and merges
// exactly with the heap's. Each entry lives inline in a ring buffer that
// grows to the lane's high-water mark and is then reused, so a
// steady-state schedule→execute cycle allocates nothing.
type Lane struct {
	eng   *Engine
	delay Time
	buf   []entry // ring buffer; len is zero or a power of two
	head  int     // index of the oldest entry
	n     int     // pending entries
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
	if l.n == len(l.buf) {
		l.grow()
	}
	e := l.eng
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = entry{at: e.now + l.delay, seq: e.seq, fn: fn, arg: arg}
	l.n++
	e.seq++
	e.laneLen++
}

// grow doubles the ring, unrolling the pending entries to its front.
func (l *Lane) grow() {
	buf := make([]entry, max(16, 2*len(l.buf)))
	for i := 0; i < l.n; i++ {
		buf[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
	}
	l.buf = buf
	l.head = 0
}

// pop removes and returns the lane's head; the vacated slot drops its
// handler and argument so the garbage collector can reclaim them.
func (l *Lane) pop() entry {
	slot := &l.buf[l.head]
	ent := *slot
	*slot = entry{}
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	l.eng.laneLen--
	return ent
}
