package sim

import (
	"hash/fnv"
	"testing"
)

// goldenOrderDigest drives a scripted, pseudo-random schedule/tombstone
// workload and hashes the exact execution order (event id, timestamp) the
// engine produces. The script stresses every ordering rule: duplicate
// timestamps (FIFO ties), zero delays, tombstoned events whose handlers
// skip their work (including tombstones on already-executed events),
// re-entrant scheduling from handlers, and interleaved Run/RunUntil
// driving.
func goldenOrderDigest(t *testing.T, e *Engine) uint64 {
	t.Helper()
	h := fnv.New64a()
	record := func(id int) {
		var buf [16]byte
		v := uint64(id)
		at := uint64(e.Now())
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
			buf[8+i] = byte(at >> (8 * i))
		}
		h.Write(buf[:])
	}

	rng := NewRNG(0xfeed)
	var dead []bool // by schedule call: the event's handler skips its work
	id := 0
	schedule := func(delay Time) {
		myID := id
		id++
		k := len(dead)
		dead = append(dead, false)
		e.MustSchedule(delay, func() {
			if dead[k] {
				return
			}
			record(myID)
			// One level of re-entrant scheduling, delay drawn from the
			// same deterministic stream.
			if myID%5 == 0 {
				childID := id
				id++
				e.MustSchedule(Time(rng.Intn(40)), func() { record(childID) })
			}
		})
	}

	for round := 0; round < 20; round++ {
		for i := 0; i < 50; i++ {
			// Small delay range forces heavy timestamp collisions, so FIFO
			// tie-breaking dominates the order.
			schedule(Time(rng.Intn(25)))
		}
		// Tombstone a deterministic subset, some of which already ran.
		for i := 0; i < 12; i++ {
			dead[rng.Intn(len(dead))] = true
		}
		if round%2 == 0 {
			e.RunUntil(e.Now() + Time(rng.Intn(30)))
		} else {
			e.Run()
		}
	}
	e.Run()
	return h.Sum64()
}

// goldenOrderWant is the digest captured from the first pointer-heap
// engine, which withdrew events instead of tombstoning them. Every engine
// since must reproduce it bit for bit: (time, seq) ordering with FIFO ties
// is the engine's contract, and a skipped event has still taken its seq.
const goldenOrderWant = 0x0eba5e3fb0919b21

func TestGoldenEventOrderDigest(t *testing.T) {
	if got := goldenOrderDigest(t, NewEngine()); got != goldenOrderWant {
		t.Fatalf("event-order digest = %#016x, want %#016x", got, goldenOrderWant)
	}
}
