package fabric

import (
	"netrs/internal/sim"
)

// Accelerator simulates a network accelerator attached to a programmable
// switch (§II): a multi-core station with a FIFO queue, a fixed
// per-selection service time, and a fixed switch↔accelerator RTT. The
// NetRS selector (the replica-selection algorithm instance) runs here.
//
// Response clones update selector state without consuming a core: the
// paper's cloning design explicitly takes response processing off the
// latency path, and the Eq. (6) capacity model counts only request
// selections.
type Accelerator struct {
	eng      *sim.Engine
	op       *Operator
	selector Selector
	cores    int
	svc      sim.Time

	busy  int
	queue sim.FIFO[*Packet]

	// Stored hot-path handlers: every request traverses switch→accelerator
	// (enterFn), service completion (finishFn), and accelerator→switch
	// (selectedFn); sharing one func value per stage keeps the per-request
	// schedule calls allocation-free.
	enterFn    sim.ArgHandler
	finishFn   sim.ArgHandler
	selectedFn sim.ArgHandler
	// tripLane (half the switch↔accelerator RTT) and svcLane (svc) are
	// the engine's fixed-delay lanes for those three stages; none of them
	// is ever canceled.
	tripLane *sim.Lane
	svcLane  *sim.Lane

	selections uint64
	busyNs     sim.Time
	maxQueue   int
}

func newAccelerator(eng *sim.Engine, cfg Config, sel Selector, op *Operator) *Accelerator {
	a := &Accelerator{
		eng:      eng,
		op:       op,
		selector: sel,
		cores:    cfg.AccelCores,
		svc:      cfg.AccelService,
		tripLane: eng.Lane(cfg.AccelRTT / 2),
		svcLane:  eng.Lane(cfg.AccelService),
	}
	a.enterFn = func(arg any) { a.enter(arg.(*Packet)) }
	a.finishFn = func(arg any) { a.finishService(arg.(*Packet)) }
	a.selectedFn = func(arg any) {
		p := arg.(*Packet)
		a.op.onSelected(p, p.Server, p.hold)
	}
	return a
}

// Selector exposes the replica-selection state (for instrumentation).
func (a *Accelerator) Selector() Selector { return a.selector }

// Selections returns the number of replica selections performed.
func (a *Accelerator) Selections() uint64 { return a.selections }

// BusyTime returns cumulative core-busy time.
func (a *Accelerator) BusyTime() sim.Time { return a.busyNs }

// MaxQueue returns the high-water mark of the accelerator queue.
func (a *Accelerator) MaxQueue() int { return a.maxQueue }

// Utilization returns busy time divided by elapsed core-time.
func (a *Accelerator) Utilization() float64 {
	return a.UtilizationAt(a.eng.Now())
}

// UtilizationAt returns busy time divided by core-time over an explicit
// span. Sharded runs use it with the logical end-of-run instant: partition
// clocks overrun the stop time by up to one window, so the local Now() is
// not the measurement span there.
func (a *Accelerator) UtilizationAt(span sim.Time) float64 {
	if span <= 0 {
		return 0
	}
	return float64(a.busyNs) / (float64(span) * float64(a.cores))
}

// submitRequest ships a request across the switch–accelerator link, queues
// it for a core, runs the selection, and hands the packet back to the
// operator.
func (a *Accelerator) submitRequest(p *Packet) {
	a.tripLane.ScheduleArg(a.enterFn, p)
}

// enter is the request's arrival at the accelerator after crossing the
// switch–accelerator link.
func (a *Accelerator) enter(p *Packet) {
	if a.busy < a.cores {
		a.startService(p)
		return
	}
	*a.queue.Push() = p
	if q := a.queue.Len() + a.busy; q > a.maxQueue {
		a.maxQueue = q
	}
}

func (a *Accelerator) startService(p *Packet) {
	a.busy++
	a.svcLane.ScheduleArg(a.finishFn, p)
}

func (a *Accelerator) finishService(p *Packet) {
	a.busy--
	a.busyNs += a.svc
	a.selections++
	if a.queue.Len() > 0 {
		a.startService(a.queue.Pop())
	}

	candidates, err := a.op.groupDB(p.RGID)
	if err != nil || len(candidates) == 0 {
		a.op.degrade(p)
		return
	}
	server, delay, err := a.selector.Pick(candidates)
	if err != nil {
		a.op.degrade(p)
		return
	}
	// Return trip to the switch; the rate-control hold rides in the packet
	// until the operator applies it.
	p.Server = server
	p.hold = delay
	a.tripLane.ScheduleArg(a.selectedFn, p)
}

// submitResponseClone folds a cloned response into the selector state.
// The response carries its request's selection timestamp, so the clone
// yields the switch-to-switch response time with no per-request state
// kept here.
func (a *Accelerator) submitResponseClone(c *Packet) {
	a.op.onCloneProcessed()
	if c.SelectedAt == 0 {
		return // no RSNode stamped the request; nothing to learn
	}
	a.selector.OnResponse(c.Server, a.eng.Now()-c.SelectedAt, c.Status)
}
