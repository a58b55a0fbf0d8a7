// Sorted-stream fixtures: replayStep is named only at a sim.Engine's
// ScheduleSorted call, and no ArgHandler-typed variable or field holds
// it, so that call alone must make it an ArgHandler root whose per-event
// allocations are findings.
package fabric

import "fixture/internal/sim"

// replayItem is one pre-sorted event's argument.
type replayItem struct {
	eng *sim.Engine
	at  int
	n   int
}

// Replay replays a pre-sorted schedule through a cursor.
type Replay struct {
	eng   *sim.Engine
	items []replayItem
}

// Start hands the schedule to the engine: a pointer into items per event,
// so no boxing finding here.
func (r *Replay) Start() {
	r.eng.ScheduleSorted(len(r.items), replayStep, func(i int) (int, any) {
		return r.items[i].at, &r.items[i]
	})
}

func replayStep(arg any) {
	it := arg.(*replayItem)
	var grown []int
	for i := 0; i < it.n; i++ {
		grown = append(grown, i) // want:hotalloc
	}
	it.eng.ScheduleArg(1, replayDone, it.n) // want:hotalloc
	it.n = len(grown)
}

// replayDone is the follow-up event replayStep schedules.
func replayDone(any) {}
