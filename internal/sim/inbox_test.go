package sim

import (
	"errors"
	"slices"
	"testing"
)

// inboxPair drives two engines through the same schedule: sut spreads its
// events over the heap, fixed-delay lanes, the exchange inbox and sorted
// cursors; ref puts every one on its heap with ScheduleArgAt, in the same
// order, so each event takes the same sequence number on both. Keys are
// unique, so the two must execute the same events in the same order.
type inboxPair struct {
	sut, ref *Engine
	lanes    []*Lane
	rng      *RNG
	sutIDs   []int // executed event ids
	refIDs   []int
	fnSut    ArgHandler
	fnRef    ArgHandler
	nextID   int
}

// inboxEv is one scheduled event; child, when nonnegative, is the lane
// index (or len(lanes) for the heap) its handler schedules a child on.
type inboxEv struct {
	id    int
	at    Time
	child int
	delay Time     // the heap child's delay
	kid   *inboxEv // the child, once the first engine has run ev
}

var inboxLaneDelays = []Time{0, 4, 9}

func newInboxPair(seed uint64) *inboxPair {
	p := &inboxPair{sut: NewEngine(), ref: NewEngine(), rng: NewRNG(seed)}
	for _, d := range inboxLaneDelays {
		p.lanes = append(p.lanes, p.sut.Lane(d))
	}
	p.fnSut = func(arg any) {
		ev := arg.(*inboxEv)
		p.sutIDs = append(p.sutIDs, ev.id)
		p.child(ev, true)
	}
	p.fnRef = func(arg any) {
		ev := arg.(*inboxEv)
		p.refIDs = append(p.refIDs, ev.id)
		p.child(ev, false)
	}
	return p
}

// newEv registers an event due at at, with a random child op a third of
// the time. The first engine to run the event creates the child's record
// and the other reuses it, so both schedule the same child.
func (p *inboxPair) newEv(at Time) *inboxEv {
	ev := &inboxEv{id: p.nextID, at: at, child: -1}
	p.nextID++
	if p.rng.Intn(3) == 0 {
		ev.child = p.rng.Intn(len(p.lanes) + 1)
		ev.delay = Time(p.rng.Intn(12))
	}
	return ev
}

// child schedules ev's child on one engine, once per handler run.
func (p *inboxPair) child(ev *inboxEv, sut bool) {
	if ev.child < 0 {
		return
	}
	e, fn := p.ref, p.fnRef
	if sut {
		e, fn = p.sut, p.fnSut
	}
	delay := ev.delay
	if ev.child < len(p.lanes) {
		delay = inboxLaneDelays[ev.child]
	}
	if ev.kid == nil {
		ev.kid = &inboxEv{id: p.nextID, at: e.Now() + delay, child: -1}
		p.nextID++
	}
	c := ev.kid
	if sut && ev.child < len(p.lanes) {
		p.lanes[ev.child].ScheduleArg(fn, c)
		return
	}
	e.MustScheduleArg(delay, fn, c)
}

// heapOp schedules one event a random delay out on both heaps.
func (p *inboxPair) heapOp() {
	ev := p.newEv(p.sut.Now() + Time(p.rng.Intn(40)))
	p.sut.MustScheduleArg(ev.at-p.sut.Now(), p.fnSut, ev)
	p.ref.MustScheduleArg(ev.at-p.ref.Now(), p.fnRef, ev)
}

// laneOp schedules one event on a random lane (the heap on ref).
func (p *inboxPair) laneOp() {
	i := p.rng.Intn(len(p.lanes))
	ev := p.newEv(p.sut.Now() + inboxLaneDelays[i])
	p.lanes[i].ScheduleArg(p.fnSut, ev)
	p.ref.MustScheduleArg(inboxLaneDelays[i], p.fnRef, ev)
}

// batchOp delivers one time-sorted batch into the inbox, with instants
// drawn over a window that overlaps the inbox's tail most of the time. It
// reports whether the batch started before the tail, so had to merge.
func (p *inboxPair) batchOp() (merged bool) {
	n := 1 + p.rng.Intn(8)
	batch := make([]xmsg, n)
	for i := range batch {
		batch[i].at = p.sut.Now() + Time(p.rng.Intn(30))
	}
	slices.SortStableFunc(batch, cmpXmsg)
	for i := range batch {
		ev := p.newEv(batch[i].at)
		batch[i].fn, batch[i].arg = p.fnSut, ev
		p.ref.MustScheduleArg(ev.at-p.ref.Now(), p.fnRef, ev)
	}
	if in := p.sut.inbox; in != nil && in.q.Len() > 0 {
		merged = in.q.At(in.q.Len()-1).at > batch[0].at
	}
	if err := p.sut.deliver(batch); err != nil {
		panic(err)
	}
	return merged
}

// cursorOp installs one sorted stream.
func (p *inboxPair) cursorOp() {
	n := p.rng.Intn(10)
	evs := make([]*inboxEv, n)
	at := p.sut.Now()
	for i := range evs {
		at += Time(p.rng.Intn(6))
		evs[i] = p.newEv(at)
		p.ref.MustScheduleArg(at-p.ref.Now(), p.fnRef, evs[i])
	}
	err := p.sut.ScheduleSorted(n, p.fnSut, func(i int) (Time, any) { return evs[i].at, evs[i] })
	if err != nil {
		panic(err)
	}
}

// check compares the two engines' traces and accounting.
func (p *inboxPair) check(t *testing.T, when string) {
	t.Helper()
	if !slices.Equal(p.sutIDs, p.refIDs) {
		t.Fatalf("%s: executed %v, reference heap %v", when, p.sutIDs, p.refIDs)
	}
	if p.sut.Now() != p.ref.Now() || p.sut.Pending() != p.ref.Pending() ||
		p.sut.Scheduled() != p.ref.Scheduled() || p.sut.Executed() != p.ref.Executed() {
		t.Fatalf("%s: now/pending/scheduled/executed %v/%d/%d/%d, reference %v/%d/%d/%d", when,
			p.sut.Now(), p.sut.Pending(), p.sut.Scheduled(), p.sut.Executed(),
			p.ref.Now(), p.ref.Pending(), p.ref.Scheduled(), p.ref.Executed())
	}
	at, ok := p.sut.NextEventAt()
	rat, rok := p.ref.NextEventAt()
	if at != rat || ok != rok {
		t.Fatalf("%s: NextEventAt %v %v, reference %v %v", when, at, ok, rat, rok)
	}
	c := p.sut.Events()
	if c.Heap+c.Lanes+c.Inbox+c.Cursor != p.sut.Executed() {
		t.Fatalf("%s: events %+v do not sum to %d executed", when, c, p.sut.Executed())
	}
	if r := p.ref.Events(); r != (EventCounts{Heap: p.ref.Executed()}) {
		t.Fatalf("%s: reference events %+v, want all %d on the heap", when, r, p.ref.Executed())
	}
}

// TestEngineInboxMatchesHeap runs random mixes of heap, lane, inbox-batch
// and cursor schedules, with handlers scheduling children onto lanes and
// the heap, against one reference heap holding every event, checking the
// execution order, the clock and the accounting after every run call.
func TestEngineInboxMatchesHeap(t *testing.T) {
	merged := 0
	for seed := uint64(1); seed <= 40; seed++ {
		p := newInboxPair(seed)
		for round := 0; round < 60; round++ {
			for k := p.rng.Intn(12); k > 0; k-- {
				switch p.rng.Intn(4) {
				case 0:
					p.heapOp()
				case 1:
					p.laneOp()
				case 2:
					if p.batchOp() {
						merged++
					}
				case 3:
					p.cursorOp()
				}
			}
			end := p.sut.Now() + Time(p.rng.Intn(25))
			if p.rng.Intn(2) == 0 {
				p.sut.RunUntil(end)
				p.ref.RunUntil(end)
			} else {
				p.sut.RunBefore(end)
				p.ref.RunBefore(end)
			}
			p.check(t, "round")
		}
		p.sut.Run()
		p.ref.Run()
		p.check(t, "drain")
		if c := p.sut.Events(); c.Inbox == 0 || c.Cursor == 0 || c.Lanes == 0 || c.Heap == 0 {
			t.Fatalf("seed %d: events %+v, want every queue used", seed, c)
		}
	}
	if merged < 100 {
		t.Fatalf("%d batches started before the inbox tail, want at least 100", merged)
	}
}

// TestScheduleSortedErrors pins ScheduleSorted's checks: nothing is
// scheduled unless every instant is sorted and not in the past.
func TestScheduleSortedErrors(t *testing.T) {
	e := NewEngine()
	e.AdvanceTo(10)
	noop := func(any) {}
	item := func(ats ...Time) func(int) (Time, any) {
		return func(i int) (Time, any) { return ats[i], nil }
	}
	for name, err := range map[string]error{
		"nil fn":   e.ScheduleSorted(1, nil, item(10)),
		"nil item": e.ScheduleSorted(1, noop, nil),
		"past":     e.ScheduleSorted(2, noop, item(9, 12)),
		"unsorted": e.ScheduleSorted(3, noop, item(10, 12, 11)),
		"negative": e.ScheduleSorted(-1, noop, item(10)),
	} {
		if !errors.Is(err, ErrNilHandler) && !errors.Is(err, ErrNegativeDelay) && !errors.Is(err, ErrNegativeCount) {
			t.Errorf("%s: error %v", name, err)
		}
	}
	if e.Pending() != 0 || e.Scheduled() != 0 || len(e.lanes) != 0 {
		t.Fatalf("failed calls left pending=%d scheduled=%d lanes=%d", e.Pending(), e.Scheduled(), len(e.lanes))
	}
	if err := e.ScheduleSorted(0, noop, item()); err != nil || len(e.lanes) != 0 {
		t.Fatalf("empty stream: error %v, %d lanes", err, len(e.lanes))
	}
	if err := e.deliver([]xmsg{{at: 9, fn: noop}}); !errors.Is(err, ErrNegativeDelay) || e.Pending() != 0 {
		t.Fatalf("deliver into the past: error %v, pending %d", err, e.Pending())
	}
	// The engine's own lanes have negative delays, so Lane never returns
	// them.
	if err := e.ScheduleSorted(1, noop, item(10)); err != nil {
		t.Fatal(err)
	}
	if err := e.deliver([]xmsg{{at: 10, fn: noop}}); err != nil {
		t.Fatal(err)
	}
	if l := e.Lane(0); l == e.inbox || l.cur != nil || len(e.lanes) != 3 {
		t.Fatal("Lane(0) handed out the inbox or a cursor")
	}
}
