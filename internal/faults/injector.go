package faults

import (
	"fmt"
	"sort"
	"strconv"

	"netrs/internal/sim"
)

// Actions is the fault surface the experiment runner exposes to the
// injector. Every method applies one fault effect; errors are reported
// through the injector's deterministic sink rather than aborting the run,
// because a mid-run fault that cannot apply (for example crashing an
// operator when every operator is already down) is an observable outcome of
// the experiment, not a programming error.
type Actions interface {
	// CrashRSNode fails the targeted operator ("busiest", "failed", or a
	// decimal ID) and returns the resolved operator ID.
	CrashRSNode(target string) (uint16, error)
	// RecoverRSNode re-admits the targeted operator and returns its ID.
	RecoverRSNode(target string) (uint16, error)
	// SetServerSlowdown scales the server's mean service time by mult.
	SetServerSlowdown(server int, mult float64) error
	// CrashServer halts the server until RestartServer.
	CrashServer(server int) error
	// RestartServer resumes a halted server.
	RestartServer(server int) error
	// SetRackLinkDelay adds extra latency to the rack's ToR-incident links
	// (zero clears a previous spike).
	SetRackLinkDelay(rack int, extra sim.Time) error
}

// threshold is a fraction-positioned event compiled to a completion count.
type threshold struct {
	count int
	ev    Event
}

// Injector executes a validated fault schedule against a run. Start hands
// the time-positioned events to the run's scheduler; fraction-positioned
// events fire from OnCompletion once the completion count reaches the
// fraction of the run's total, rounded down and at least one.
type Injector struct {
	schedule func(at sim.Time, fn func()) error
	acts     Actions
	report   func(msg string)

	timed      []Event
	thresholds []threshold
	next       int
	fired      int
}

// NewInjector compiles events against a run of total measured requests.
// schedule runs fn at absolute instant at; the cluster runner passes its
// ShardSet's ScheduleGlobal, so every fault and inverse runs at a barrier,
// before the partition events at its instant, at any partition count.
// The report sink receives one deterministic line per fault that fails to
// apply; nil discards them.
func NewInjector(schedule func(at sim.Time, fn func()) error, acts Actions, total int, events []Event, report func(msg string)) (*Injector, error) {
	if err := ValidateEvents(events); err != nil {
		return nil, err
	}
	if report == nil {
		report = func(string) {}
	}
	in := &Injector{schedule: schedule, acts: acts, report: report}
	for _, e := range events {
		if e.AtFraction > 0 {
			count := int(e.AtFraction * float64(total))
			if count < 1 {
				count = 1
			}
			in.thresholds = append(in.thresholds, threshold{count: count, ev: e})
			continue
		}
		in.timed = append(in.timed, e)
	}
	// Stable: equal counts keep declaration order, as timed events due at
	// one instant run in the order Start schedules them.
	sort.SliceStable(in.thresholds, func(i, j int) bool {
		return in.thresholds[i].count < in.thresholds[j].count
	})
	return in, nil
}

// Start schedules the time-positioned events, in declaration order. Call
// once, before the run starts.
func (in *Injector) Start() error {
	for _, ev := range in.timed {
		at := sim.FromMs(ev.AtMs)
		if err := in.schedule(at, func() { in.apply(ev, at) }); err != nil {
			return fmt.Errorf("faults: schedule %s: %w", ev, err)
		}
	}
	return nil
}

// OnCompletion fires every fraction-positioned event whose threshold the
// completion count has reached, in threshold order (equal thresholds in
// declaration order), at instant now. The runner calls it with the count
// after a whole instant's completions, which may cross several thresholds
// at once.
func (in *Injector) OnCompletion(completed int, now sim.Time) {
	for in.next < len(in.thresholds) && in.thresholds[in.next].count <= completed {
		ev := in.thresholds[in.next].ev
		in.next++
		in.apply(ev, now)
	}
}

// Pending reports whether a fraction-positioned event has yet to fire.
func (in *Injector) Pending() bool { return in.next < len(in.thresholds) }

// Fired returns how many events (including duration-scheduled inverses) have
// been applied so far.
func (in *Injector) Fired() int { return in.fired }

// apply dispatches one event at instant now and, on success, schedules its
// inverse DurationMs later when a duration is set.
func (in *Injector) apply(ev Event, now sim.Time) {
	in.fired++
	var inverse *Event
	var err error
	switch ev.Kind {
	case KindRSNodeCrash:
		var id uint16
		if id, err = in.acts.CrashRSNode(ev.RSNode); err == nil && ev.DurationMs > 0 {
			// Recover the specific operator this crash hit, not whichever
			// failed most recently by the time the duration elapses.
			inverse = &Event{Kind: KindRSNodeRecover, RSNode: strconv.FormatUint(uint64(id), 10)}
		}
	case KindRSNodeRecover:
		_, err = in.acts.RecoverRSNode(ev.RSNode)
	case KindServerSlowdown:
		if err = in.acts.SetServerSlowdown(ev.Server, ev.Multiplier); err == nil && ev.DurationMs > 0 {
			inverse = &Event{Kind: KindServerSlowdown, Server: ev.Server, Multiplier: 1}
		}
	case KindServerCrash:
		if err = in.acts.CrashServer(ev.Server); err == nil && ev.DurationMs > 0 {
			inverse = &Event{Kind: KindServerRestart, Server: ev.Server}
		}
	case KindServerRestart:
		err = in.acts.RestartServer(ev.Server)
	case KindLinkDelay:
		if err = in.acts.SetRackLinkDelay(ev.Rack, sim.FromMs(ev.ExtraMs)); err == nil && ev.DurationMs > 0 {
			inverse = &Event{Kind: KindLinkDelay, Rack: ev.Rack, ExtraMs: 0}
		}
	default:
		err = fmt.Errorf("unknown event kind %q: %w", ev.Kind, ErrInvalidSchedule)
	}
	if err != nil {
		in.report(fmt.Sprintf("fault %s at %v: %v", ev, now, err))
		return
	}
	if inverse != nil {
		inv, at := *inverse, now+sim.FromMs(ev.DurationMs)
		if err := in.schedule(at, func() { in.apply(inv, at) }); err != nil {
			panic(fmt.Sprintf("faults: schedule %s: %v", inv, err))
		}
	}
}
