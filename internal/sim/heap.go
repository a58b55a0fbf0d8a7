package sim

// The agenda heap is a 4-ary min-heap ordered by (time, sequence). It holds
// every event that is not on a lane (lane.go): variable delays and
// absolute-instant schedules. Each entry carries its ordering key
// inline with its handler, so the sift loops compare dense heap memory and
// popping the top needs no second lookup. The 4-ary layout halves the tree
// depth of a binary heap while keeping each node's children in a few cache
// lines. A hand-rolled heap also avoids the interface boxing of
// container/heap on the simulator's hottest path.

// heapArity is the branching factor of the agenda heap.
const heapArity = 4

// heapLess orders entries by (time, sequence); the sequence tie-break
// makes same-instant execution FIFO in scheduling order.
func heapLess(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush adds ent. It and heapPop move a hole instead of swapping: each
// entry passed over moves one level, and the placed entry is written once.
func (e *Engine) heapPush(ent entry) {
	e.heap = append(e.heap, entry{})
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !heapLess(&ent, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ent
}

// heapPop removes and returns the top entry; the vacated tail slot drops
// its handler and argument so the garbage collector can reclaim them.
func (e *Engine) heapPop() entry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	h = h[:n]
	e.heap = h
	if n == 0 {
		return top
	}
	// Sift last down from the hole at the root.
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		smallest := first
		for c := first + 1; c < min(first+heapArity, n); c++ {
			if heapLess(&h[c], &h[smallest]) {
				smallest = c
			}
		}
		if !heapLess(&h[smallest], &last) {
			break
		}
		h[i] = h[smallest]
		i = smallest
	}
	h[i] = last
	return top
}
