package sim

import (
	"slices"
	"testing"
)

// TestFIFOMatchesSlice runs random pushes and pops against a plain slice,
// long enough for the ring to grow from 16 to at least 256 slots, with
// pops moving its head between growths, so a growth that lost the head's
// place would reorder entries. It compares every popped value, Len, and
// every At index.
func TestFIFOMatchesSlice(t *testing.T) {
	rng := NewRNG(5)
	var q FIFO[int]
	var ref []int
	next := 0
	for round := 0; round < 6000; round++ {
		// Drift upward for the first half and drain in the second.
		pushP := 0.6
		if round >= 3000 {
			pushP = 0.4
		}
		if rng.Float64() < pushP || len(ref) == 0 {
			*q.Push() = next
			ref = append(ref, next)
			next++
		} else if got, want := q.Pop(), ref[0]; got != want {
			t.Fatalf("round %d: Pop = %d, want %d", round, got, want)
		} else {
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("round %d: Len = %d, want %d", round, q.Len(), len(ref))
		}
		for i, want := range ref {
			if got := *q.At(i); got != want {
				t.Fatalf("round %d: At(%d) = %d, want %d", round, i, got, want)
			}
		}
	}
	if len(q.buf) < 256 {
		t.Fatalf("ring reached %d slots, want at least 256 (four growths)", len(q.buf))
	}
}

// TestFIFOGrowKeepsWrappedOrder pins growth on a wrapped ring: the head
// sits mid-buffer and the tail has wrapped past the end when the ring
// fills, so the entries must come out in push order afterwards, and the
// slots outside the live span must be zero.
func TestFIFOGrowKeepsWrappedOrder(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 16; i++ {
		*q.Push() = i
	}
	for i := 0; i < 10; i++ {
		q.Pop()
	}
	for i := 16; i < 26; i++ { // wraps to slots 0..9, filling the ring
		*q.Push() = i
	}
	if q.head != 10 || q.Len() != len(q.buf) {
		t.Fatalf("head %d, %d of %d slots: want a full ring with its head at 10", q.head, q.Len(), len(q.buf))
	}
	*q.Push() = 26 // grows to 32 slots
	for i := range q.buf {
		if live := (i-q.head)&(len(q.buf)-1) < q.Len(); !live && q.buf[i] != 0 {
			t.Fatalf("slot %d outside the live span holds stale %d", i, q.buf[i])
		}
	}
	var got []int
	for q.Len() > 0 {
		got = append(got, q.Pop())
	}
	want := make([]int, 0, 17)
	for i := 10; i <= 26; i++ {
		want = append(want, i)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("after a wrapped grow popped %v, want %v", got, want)
	}
}

// TestFIFOZeroesVacatedSlots checks that a popped slot keeps no reference
// for the garbage collector, and that Push hands out a zero slot, also
// right after a growth.
func TestFIFOZeroesVacatedSlots(t *testing.T) {
	var q FIFO[*int]
	if q.Len() != 0 || q.buf != nil {
		t.Fatal("zero FIFO owns memory")
	}
	for i := 0; i < 40; i++ {
		p := q.Push()
		if *p != nil {
			t.Fatalf("push %d: slot holds %p, want a zero slot", i, *p)
		}
		*p = new(int)
		if i%3 == 0 {
			q.Pop()
		}
	}
	for q.Len() > 0 {
		q.Pop()
	}
	for i, v := range q.buf {
		if v != nil {
			t.Fatalf("slot %d still references %p after the queue drained", i, v)
		}
	}
}

// TestFIFOPanics pins the checked accessors: Pop of an empty queue and At
// past the tail panic instead of reading a stale or zeroed slot.
func TestFIFOPanics(t *testing.T) {
	var q FIFO[int]
	*q.Push() = 1
	q.Pop()
	for name, f := range map[string]func(){
		"Pop empty":   func() { q.Pop() },
		"At(0) empty": func() { q.At(0) },
		"At(-1)":      func() { q.At(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestFIFOWarmCycleAllocFree pins the steady state at zero allocations
// once the ring has grown to the cycle's high-water mark.
func TestFIFOWarmCycleAllocFree(t *testing.T) {
	var q FIFO[entry]
	cycle := func() {
		for i := 0; i < 100; i++ {
			*q.Push() = entry{at: Time(i), seq: uint64(i)}
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("warm push/pop cycle allocates %v times, want 0", allocs)
	}
}
