// Lane fixtures: relayStep is named only at a sim.Lane's ScheduleArg call,
// and no ArgHandler-typed variable or field holds it, so that call alone
// must make it an ArgHandler root whose per-event allocations and
// shared-state writes are findings.
package fabric

import "fixture/internal/sim"

// relayed and relayOut are shared state only the lane handler writes.
var (
	relayed  int
	relayOut []int
)

// Relay sends work down a fixed-delay lane.
type Relay struct {
	lane *sim.Lane
}

// NewRelay builds the relay.
func NewRelay(eng *sim.Engine) *Relay { return &Relay{lane: eng.Lane(2)} }

// Start sends a pooled pointer down the lane: no boxing finding here.
func (r *Relay) Start(n *int) { r.lane.ScheduleArg(relayStep, n) }

func relayStep(arg any) {
	n := arg.(*int)
	var grown []int
	for i := 0; i < *n; i++ {
		grown = append(grown, i) // want:hotalloc
	}
	relayOut = grown // want:shardsafety
	relayed++        // want:shardsafety
}
