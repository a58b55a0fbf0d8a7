package sim

// The agenda heap is a 4-ary min-heap ordered by (time, sequence). It holds
// every event that is not on a fixed-delay lane (lane.go): cancellable
// timers, variable delays and absolute-instant schedules. Each heap
// entry caches its event's ordering key next to the arena index, so the
// sift loops compare dense heap memory instead of dereferencing random
// arena slots — on paper-scale agendas the sift-down cache misses are what
// dominate, and the key copy removes all of them. The 4-ary layout halves
// the tree depth of a binary heap while keeping each node's children in
// one or two cache lines. A hand-rolled heap also avoids the interface
// boxing of container/heap on the simulator's hottest path.

// heapArity is the branching factor of the agenda heap.
const heapArity = 4

// heapEntry is one agenda slot: the event's (at, seq) ordering key plus
// its arena index. The key is immutable once scheduled, so the cached
// copy never goes stale; cancellation is handled by the arena's dead flag.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
}

// heapLess orders entries by (time, sequence); the sequence tie-break
// makes same-instant execution FIFO in scheduling order.
func heapLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(ent heapEntry) {
	e.heap = append(e.heap, ent)
	e.heapUp(len(e.heap) - 1)
}

func (e *Engine) heapPop() int32 {
	h := e.heap
	top := h[0].idx
	n := len(h) - 1
	h[0] = h[n]
	e.heap = h[:n]
	if n > 1 {
		e.heapDown(0)
	}
	return top
}

func (e *Engine) heapUp(i int) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / heapArity
		if !heapLess(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (e *Engine) heapDown(i int) {
	h := e.heap
	n := len(h)
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		smallest := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if heapLess(h[c], h[smallest]) {
				smallest = c
			}
		}
		if !heapLess(h[smallest], h[i]) {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}
