// Hot-path allocation fixtures: work is reachable from an ArgHandler
// root (workFn), so its per-event allocations are findings; Cold runs
// the same code unreached and stays clean.
package fabric

import "fixture/internal/sim"

// Hot owns a stored ArgHandler whose work allocates per event.
type Hot struct {
	eng    *sim.Engine
	lane   *sim.Lane
	workFn sim.ArgHandler
	out    []int
}

// NewHot builds the component and registers its handler root.
func NewHot(eng *sim.Engine) *Hot {
	h := &Hot{eng: eng, lane: eng.Lane(1)}
	h.workFn = func(arg any) { h.work(arg.(int)) }
	return h
}

func (h *Hot) work(n int) {
	h.eng.Schedule(1, func() { h.out = append(h.out, n) }) // want:hotalloc
	h.eng.ScheduleArg(1, h.workFn, n+1)                    // want:hotalloc
	h.lane.ScheduleArg(h.workFn, n+2)                      // want:hotalloc
	var grown []int
	for i := 0; i < n; i++ {
		grown = append(grown, i) // want:hotalloc
	}
	h.out = grown
	h.fixed(n)
	h.waived(n)
}

// fixed preallocates; the leftover waiver suppresses nothing and is the
// stale-after-fix regression case.
func (h *Hot) fixed(n int) {
	grown := make([]int, 0, n)
	for i := 0; i < n; i++ {
		grown = append(grown, i) //lint:hotalloc preallocated since; want:waiver
	}
	h.out = grown
}

// waived keeps a justified waiver alive: the append is a real finding
// the directive still suppresses.
func (h *Hot) waived(n int) {
	var lazy []int
	for i := 0; i < n; i++ {
		lazy = append(lazy, i) //lint:hotalloc bounded fan-out, measured cold
	}
	h.out = lazy
}

// Cold performs the same allocations but no handler reaches it: clean.
func Cold(n int) []int {
	var grown []int
	for i := 0; i < n; i++ {
		grown = append(grown, i)
	}
	return grown
}

// Start schedules tick as a plain Handler: hotalloc covers ArgHandler
// roots only, so tick's allocations stay clean even though the engine
// runs every Handler through an ArgHandler trampoline.
func (h *Hot) Start() { h.eng.Schedule(1, h.tick) }

func (h *Hot) tick() {
	var grown []int
	for i := 0; i < len(h.out); i++ {
		grown = append(grown, i)
	}
	h.out = grown
}
