package sim

// FIFO is a first-in first-out queue kept in a power-of-two ring buffer.
// Entries live inline; the ring grows lazily, doubling to the queue's
// high-water mark, and is then reused, so a warm push→pop cycle performs
// no heap allocation. A popped slot is zeroed, dropping any references
// its entry held. The zero FIFO is an empty queue that owns no memory.
// The event lanes, the kv servers' request queues and the accelerators'
// packet queues all use it.
type FIFO[T any] struct {
	buf  []T // ring buffer; len is zero or a power of two
	head int // index of the oldest entry
	n    int // entries queued
}

// Len returns the number of queued entries.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends a slot at the tail and returns a pointer to it, valid
// until the next Push or Pop. The slot is zero (vacated slots are zeroed),
// so the caller fills in only the fields it needs; building the entry in
// place also spares copying it through an argument.
//
// A full ring doubles by appending itself: with the mask widened to the
// new length, the entries from the head onwards read in the same order,
// so the head stays put, and only the two stale copies outside the live
// span are cleared. Growing with builtins rather than a call keeps Push
// small enough to inline on the event lanes' path.
func (q *FIFO[T]) Push() *T {
	if q.n == len(q.buf) {
		if q.n == 0 {
			q.buf = make([]T, 16)
		} else {
			q.buf = append(q.buf, q.buf...)
			clear(q.buf[:q.head])
			clear(q.buf[q.head+q.n:])
		}
	}
	slot := &q.buf[(q.head+q.n)&(len(q.buf)-1)]
	q.n++
	return slot
}

// Pop removes and returns the oldest entry, zeroing its slot. It panics
// on an empty queue.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop of an empty FIFO")
	}
	slot := &q.buf[q.head]
	v := *slot
	var zero T
	*slot = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// At returns a pointer to the i-th oldest entry (0 is the head), valid
// until the next Push or Pop. It panics unless 0 ≤ i < Len().
func (q *FIFO[T]) At(i int) *T {
	if uint(i) >= uint(q.n) {
		panic("sim: FIFO index out of range")
	}
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}
