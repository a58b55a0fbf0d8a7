package sim

import (
	"fmt"
	"testing"
)

// fuzzLaneDelays are FuzzEngineOrder's lanes: a zero delay, and delays the
// heap's script delays (0..63) also draw, so lane heads and heap tops tie.
var fuzzLaneDelays = [...]Time{0, 5, 17}

// fuzzEvent is one scheduled event of the FuzzEngineOrder script, shared by
// the engine (as the handler's argument) and the reference executor.
type fuzzEvent struct {
	at, seq uint64
	// child, when nonzero, is a schedule op the handler issues when it
	// runs: it exercises lanes fed from inside handlers, where the clock
	// moves between schedules.
	child byte
}

// fuzzKey is an executed event's (at, seq) key.
type fuzzKey struct{ at, seq uint64 }

// fuzzRef is the slice reference executor: one unordered slice of the
// pending events, scanned for the smallest (at, seq) key one event at a
// time.
type fuzzRef struct {
	now     Time
	pending []*fuzzEvent
}

// next returns the pending index of the earliest event, or -1.
func (r *fuzzRef) next() int {
	best := -1
	for i, ev := range r.pending {
		if best < 0 || ev.at < r.pending[best].at ||
			(ev.at == r.pending[best].at && ev.seq < r.pending[best].seq) {
			best = i
		}
	}
	return best
}

// remove drops an executed event from the pending slice.
func (r *fuzzRef) remove(ev *fuzzEvent) {
	for i, p := range r.pending {
		if p == ev {
			r.pending[i] = r.pending[len(r.pending)-1]
			r.pending = r.pending[:len(r.pending)-1]
			return
		}
	}
}

// fuzzScript runs one decoded script on an engine and the reference side by
// side and reports the first divergence.
type fuzzScript struct {
	e      *Engine
	lanes  []*Lane
	ref    fuzzRef
	seq    uint64    // the next event's sequence number
	trace  []fuzzKey // (at, seq) in engine execution order
	stopIn int       // the stopIn-th next handler calls Stop (0 = never)
	refHit int       // the reference's copy of stopIn
	fn     ArgHandler
	// held are the open streams' items not pushed yet: runOp pushes them
	// after its run, so a stream's items straddle Run calls.
	held []fuzzHeld
}

// fuzzHeld is a stream item whose push runOp defers.
type fuzzHeld struct {
	str *Stream
	i   int
	ev  *fuzzEvent
}

func newFuzzScript() *fuzzScript {
	s := &fuzzScript{e: NewEngine()}
	for _, d := range fuzzLaneDelays {
		s.lanes = append(s.lanes, s.e.Lane(d))
	}
	s.fn = func(arg any) {
		ev := arg.(*fuzzEvent)
		s.trace = append(s.trace, fuzzKey{uint64(s.e.Now()), ev.seq})
		if s.stopIn > 0 {
			s.stopIn--
			if s.stopIn == 0 {
				s.e.Stop()
			}
		}
		if ev.child != 0 {
			s.schedule(ev.child, 0)
		}
	}
	return s
}

// schedule issues one schedule op on both sides: op picks a lane or a heap
// delay, child is the op the new event's handler issues in turn.
func (s *fuzzScript) schedule(op, child byte) {
	ev := &fuzzEvent{seq: s.seq, child: child}
	s.seq++
	if op&1 == 0 {
		l := s.lanes[int(op>>1)%len(s.lanes)]
		ev.at = uint64(s.e.Now() + l.delay)
		l.ScheduleArg(s.fn, ev)
	} else {
		d := Time(op>>2) % 64
		ev.at = uint64(s.e.Now() + d)
		s.e.MustScheduleArg(d, s.fn, ev)
	}
	s.ref.pending = append(s.ref.pending, ev)
}

// refRun executes the reference through last (inclusive), honoring the
// same Stop countdown, and returns the keys it ran plus whether it stopped.
func (s *fuzzScript) refRun(last Time) ([]fuzzKey, bool) {
	var ran []fuzzKey
	for {
		i := s.ref.next()
		if i < 0 || Time(s.ref.pending[i].at) > last {
			return ran, false
		}
		ev := s.ref.pending[i]
		s.ref.remove(ev)
		s.ref.now = Time(ev.at)
		ran = append(ran, fuzzKey{ev.at, ev.seq})
		// The engine side already ran this handler, whose child schedule
		// appended the child to ref.pending; only the countdown is
		// mirrored here.
		if s.refHit > 0 {
			s.refHit--
			if s.refHit == 0 {
				return ran, true
			}
		}
	}
}

// sorted issues one inbox-batch (inbox) or stream op on both sides: up to
// four events from now+x%32 on, each a step of 0..2 after the one before,
// so batches and streams tie with each other, the heap and the lanes.
// Each event's handler issues child. A stream pushes its first half now
// and holds the rest for runOp to push after its run.
func (s *fuzzScript) sorted(x, child byte, inbox bool) error {
	n := int(x>>5) % 5
	if inbox && n == 0 {
		n = 1
	}
	var str *Stream
	if !inbox {
		var err error
		if str, err = s.e.Stream(n, s.fn); err != nil {
			return err
		}
	}
	evs := make([]*fuzzEvent, n)
	at := uint64(s.e.Now()) + uint64(x%32)
	for i := range evs {
		at += uint64(i+int(x>>2)) % 3
		evs[i] = &fuzzEvent{at: at, seq: s.seq, child: child}
		s.seq++
		if str != nil && i >= (n+1)/2 {
			s.held = append(s.held, fuzzHeld{str, i, evs[i]})
			continue
		}
		s.ref.pending = append(s.ref.pending, evs[i])
		if str != nil {
			if err := str.Push(i, Time(at), evs[i]); err != nil {
				return err
			}
		}
	}
	if inbox {
		return s.deliver(evs)
	}
	if (n+1)/2 == n {
		str.Close() // nothing held
	}
	return nil
}

// pushHeld pushes every held stream item, moved to now if the clock has
// passed it, and closes the streams.
func (s *fuzzScript) pushHeld() error {
	for _, h := range s.held {
		h.ev.at = max(h.ev.at, uint64(s.e.Now()))
		if err := h.str.Push(h.i, Time(h.ev.at), h.ev); err != nil {
			return err
		}
		s.ref.pending = append(s.ref.pending, h.ev)
	}
	for _, h := range s.held {
		h.str.Close()
	}
	s.held = s.held[:0]
	return nil
}

// deliver hands evs to the engine's inbox as one exchange batch.
func (s *fuzzScript) deliver(evs []*fuzzEvent) error {
	batch := make([]xmsg, len(evs))
	for i, ev := range evs {
		batch[i] = xmsg{at: Time(ev.at), fn: s.fn, arg: ev}
	}
	return s.e.deliver(batch)
}

// run executes one script and returns the first divergence, or nil.
func (s *fuzzScript) run(script []byte) error {
	for len(script) >= 2 {
		op, x := script[0], script[1]
		script = script[2:]
		switch op % 8 {
		case 0, 1, 2:
			s.schedule(x, op>>3)
		case 3:
			if err := s.runOp(s.e.Now()+Time(x%64), true); err != nil {
				return err
			}
		case 4:
			if err := s.runOp(s.e.Now()+Time(x%64)+1, false); err != nil {
				return err
			}
		case 5:
			s.stopIn = 1 + int(x%8)
			s.refHit = s.stopIn
		case 6, 7:
			if err := s.sorted(x, op>>3, op%8 == 6); err != nil {
				return err
			}
		}
	}
	if err := s.runOp(maxTime, false); err != nil {
		return err
	}
	return s.runOp(maxTime, false) // what the last run's pushes added
}

// runOp runs RunUntil(bound) (until) or RunBefore(bound) on the engine and
// the reference, then compares traces, clocks and accounting. The engine
// runs first: its handlers schedule child events on both sides in
// execution order, which is the order the reference needs them.
func (s *fuzzScript) runOp(bound Time, until bool) error {
	s.trace = s.trace[:0]
	var n uint64
	last := bound - 1
	if until {
		n, last = s.e.RunUntil(bound), bound
	} else {
		n = s.e.RunBefore(bound)
	}
	ran, stopped := s.refRun(last)
	if until && !stopped && s.ref.now < bound {
		s.ref.now = bound
	}
	if len(ran) != len(s.trace) || int(n) != len(ran) {
		return fmt.Errorf("run to %v: engine ran %d (reported %d), reference %d", bound, len(s.trace), n, len(ran))
	}
	for i := range ran {
		if ran[i] != s.trace[i] {
			return fmt.Errorf("run to %v: event %d is (at, seq) %v, reference %v", bound, i, s.trace[i], ran[i])
		}
	}
	if s.e.Now() != s.ref.now {
		return fmt.Errorf("run to %v: clock %v, reference %v", bound, s.e.Now(), s.ref.now)
	}
	if s.e.Pending() != len(s.ref.pending) || s.e.Scheduled() != s.seq {
		return fmt.Errorf("run to %v: pending %d scheduled %d, reference %d/%d",
			bound, s.e.Pending(), s.e.Scheduled(), len(s.ref.pending), s.seq)
	}
	at, ok := s.e.NextEventAt()
	if i := s.ref.next(); ok != (i >= 0) || ok && uint64(at) != s.ref.pending[i].at {
		return fmt.Errorf("run to %v: NextEventAt %v %v disagrees with the reference", bound, at, ok)
	}
	return s.pushHeld()
}

// FuzzEngineOrder decodes a byte script of schedule, lane-schedule,
// inbox-batch, stream, RunUntil, RunBefore and Stop operations and requires the engine's execution trace — every event's
// (at, seq) — to equal the sorted-slice reference's. Scheduled handlers
// may themselves schedule, so lanes are also fed while the clock moves.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 2, 3, 10, 0, 0})
	// A heap event and a lane event due at one instant: seq alone orders.
	f.Add([]byte{0, 21, 0, 2, 1, 2, 0, 69})
	// Schedules whose handlers schedule one, one and two children.
	f.Add([]byte{8, 0, 9, 3, 16, 4, 2, 21, 5, 2, 3, 40, 0, 0, 1, 9, 4, 5})
	f.Add([]byte{0, 2, 0, 4, 1, 1, 1, 5, 5, 0, 4, 17, 4, 1, 3, 63})
	// Inbox batches, the second overlapping the first's tail, a stream
	// tying with both, and a heap event among them.
	f.Add([]byte{6, 0x6a, 6, 0x63, 7, 0x85, 1, 9, 4, 12, 14, 0x41, 3, 40})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1024 {
			script = script[:1024]
		}
		if err := newFuzzScript().run(script); err != nil {
			t.Fatal(err)
		}
	})
}
