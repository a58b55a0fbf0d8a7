// Stream fixtures: replayStep is named only at a sim.Engine's Stream
// call, and no ArgHandler-typed variable or field holds it, so that call
// alone must make it an ArgHandler root whose per-event allocations are
// findings.
package fabric

import "fixture/internal/sim"

// replayItem is one pre-sorted event's argument.
type replayItem struct {
	eng *sim.Engine
	rng *sim.RNG
	at  int
	n   int
}

// Replay replays a pre-sorted schedule through a stream.
type Replay struct {
	eng   *sim.Engine
	items []replayItem
}

// Start pushes the schedule onto a stream: a pointer into items per
// event, so no boxing finding here.
func (r *Replay) Start() {
	str := r.eng.Stream(len(r.items), replayStep)
	for i := range r.items {
		str.Push(i, r.items[i].at, &r.items[i])
	}
}

func replayStep(arg any) {
	it := arg.(*replayItem)
	var grown []int
	for i := 0; i < it.n; i++ {
		grown = append(grown, i) // want:hotalloc
	}
	it.eng.ScheduleArg(1, replayDone, it.n) // want:hotalloc
	it.rng = it.rng.Stream(uint64(it.n))    // an RNG stream index boxes nothing
	it.n = len(grown)
}

// replayDone is the follow-up event replayStep schedules.
func replayDone(any) {}
