package sim

import (
	"errors"
	"slices"
	"testing"
)

// inboxPair drives two engines through the same schedule: sut spreads its
// events over the heap, fixed-delay lanes, the exchange inbox and
// streams; ref puts every one on its heap with ScheduleArgAt, in the same
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

// streamOp opens one stream, pushes every item and closes it.
func (p *inboxPair) streamOp() {
	n := p.rng.Intn(10)
	str, err := p.sut.Stream(n, p.fnSut)
	if err != nil {
		panic(err)
	}
	at := p.sut.Now()
	for i := 0; i < n; i++ {
		at += Time(p.rng.Intn(6))
		ev := p.newEv(at)
		p.ref.MustScheduleArg(at-p.ref.Now(), p.fnRef, ev)
		if err := str.Push(i, at, ev); err != nil {
			panic(err)
		}
	}
	str.Close()
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
// and stream schedules, with handlers scheduling children onto lanes and
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
					p.streamOp()
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

// TestStreamErrors pins Stream's and Push's checks, and what a stream
// does between them: a failed call schedules nothing, a pushed item runs
// with its reserved sequence number (before a heap event scheduled after
// the opening at its instant, although pushed later), indices may skip,
// and a closed stream takes no item and leaves the dispatch loop once it
// is empty.
func TestStreamErrors(t *testing.T) {
	e := NewEngine()
	e.AdvanceTo(10)
	var ran []string
	logFn := func(arg any) { ran = append(ran, arg.(string)) }
	for name, err := range map[string]error{
		"nil fn":   func() error { _, err := e.Stream(1, nil); return err }(),
		"negative": func() error { _, err := e.Stream(-1, logFn); return err }(),
	} {
		if !errors.Is(err, ErrNilHandler) && !errors.Is(err, ErrNegativeCount) {
			t.Errorf("%s: error %v", name, err)
		}
	}
	if e.Pending() != 0 || e.Scheduled() != 0 || len(e.lanes) != 0 {
		t.Fatalf("failed opens left pending=%d scheduled=%d lanes=%d", e.Pending(), e.Scheduled(), len(e.lanes))
	}
	empty, err := e.Stream(0, logFn)
	if err != nil {
		t.Fatal(err)
	}
	empty.Close()
	if len(e.lanes) != 0 {
		t.Fatalf("a closed empty stream left %d lanes", len(e.lanes))
	}
	str, err := e.Stream(4, logFn)
	if err != nil {
		t.Fatal(err)
	}
	e.MustScheduleArg(2, logFn, "heap")
	if err := str.Push(1, 12, "stream"); err != nil {
		t.Fatal(err)
	}
	for name, err := range map[string]error{
		"past":     str.Push(2, 9, "x"),
		"unsorted": str.Push(2, 11, "x"),
		"repeated": str.Push(1, 12, "x"),
		"beyond":   str.Push(4, 12, "x"),
	} {
		if !errors.Is(err, ErrNegativeDelay) && !errors.Is(err, ErrStreamIndex) {
			t.Errorf("%s: error %v", name, err)
		}
	}
	str.Close()
	if err := str.Push(3, 20, "x"); !errors.Is(err, ErrStreamIndex) {
		t.Errorf("push after close: error %v", err)
	}
	if e.Pending() != 2 || e.Scheduled() != 5 || str.Len() != 1 {
		t.Fatalf("pending=%d scheduled=%d stream len=%d, want 2/5/1", e.Pending(), e.Scheduled(), str.Len())
	}
	e.Run()
	if !slices.Equal(ran, []string{"stream", "heap"}) {
		t.Fatalf("ran %v, want the stream item before the later-scheduled heap event", ran)
	}
	if len(e.lanes) != 0 || e.Events().Cursor != 1 {
		t.Fatalf("after the drain: %d lanes, events %+v; want the closed stream dropped", len(e.lanes), e.Events())
	}
	if err := e.deliver([]xmsg{{at: 9, fn: logFn}}); !errors.Is(err, ErrNegativeDelay) || e.Pending() != 0 {
		t.Fatalf("deliver into the past: error %v, pending %d", err, e.Pending())
	}
	// The engine's own lanes have negative delays, so Lane never returns
	// them.
	if _, err := e.Stream(1, logFn); err != nil {
		t.Fatal(err)
	}
	if err := e.deliver([]xmsg{{at: 12, fn: logFn, arg: "inbox"}}); err != nil {
		t.Fatal(err)
	}
	if l := e.Lane(0); l == e.inbox || l.str != nil || len(e.lanes) != 3 {
		t.Fatal("Lane(0) handed out the inbox or a stream")
	}
}
