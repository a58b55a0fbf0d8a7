package sim

import "testing"

// The exchange contract under test (DESIGN.md §11): the per-(src,dst)
// slabs and the destination inboxes are recycled across windows —
// consumed entries are poisoned and the slices cut back to length zero
// keeping capacity — so a steady-state window loop allocates nothing and
// no handler or payload reference outlives its delivery.

const (
	exParts     = 3
	exLookahead = 10 * Microsecond
	exDeadline  = Time(1) << 60
)

// exMsg is one bouncing payload: delivered in partition `at`, it re-sends
// itself to the next partition until hops is exhausted.
type exMsg struct {
	hops int
	at   int
}

// exWorkload drives rounds of all-to-all traffic over one ShardSet.
type exWorkload struct {
	set       *ShardSet
	msgs      []exMsg
	delivered int
	fn        ArgHandler
}

func newExWorkload(t *testing.T, workers int) *exWorkload {
	t.Helper()
	set, err := NewShardSet(exParts, workers, exLookahead)
	if err != nil {
		t.Fatalf("NewShardSet: %v", err)
	}
	w := &exWorkload{set: set}
	w.fn = func(arg any) {
		m := arg.(*exMsg)
		w.delivered++
		if m.hops == 0 {
			return
		}
		m.hops--
		src := m.at
		m.at = (m.at + 1) % exParts
		w.set.MustSend(src, m.at, w.set.Engine(src).Now()+exLookahead, w.fn, m)
	}
	return w
}

// burst seeds width chains of the given hop count in partition 0 and runs
// the set until the exchange drains. The message records are reused, so
// past the first call the burst itself allocates nothing.
func (w *exWorkload) burst(t *testing.T, width, hops int) {
	if t != nil {
		t.Helper()
	}
	if cap(w.msgs) < width {
		w.msgs = make([]exMsg, width)
	}
	w.msgs = w.msgs[:width]
	base := w.set.Engine(0).Now()
	for i := range w.msgs {
		w.msgs[i] = exMsg{hops: hops, at: 0}
		w.set.Engine(0).MustScheduleArg(base+Time(i), w.fn, &w.msgs[i])
	}
	if err := w.set.Run(exDeadline, nil); err != nil {
		if t != nil {
			t.Fatalf("Run: %v", err)
		}
		panic(err)
	}
}

// slabCaps snapshots every (src,dst) buffer capacity plus every
// partition's inbox ring capacity.
func slabCaps(s *ShardSet) []int {
	var caps []int
	for src := range s.xbuf {
		for dst := range s.xbuf[src] {
			caps = append(caps, cap(s.xbuf[src][dst]))
		}
	}
	for _, e := range s.engines {
		if e.inbox != nil {
			caps = append(caps, len(e.inbox.q.buf))
		}
	}
	return caps
}

// TestExchangeSlabReuse runs two identical bursts back to back and
// asserts the second one grows nothing: the slabs and the inboxes reach
// their high-water mark in burst one and are reused verbatim.
func TestExchangeSlabReuse(t *testing.T) {
	w := newExWorkload(t, 1)
	w.burst(t, 32, 12)
	want := 32 * 13
	if w.delivered != want {
		t.Fatalf("burst 1 delivered %d, want %d", w.delivered, want)
	}
	high := slabCaps(w.set)

	w.burst(t, 32, 12)
	if w.delivered != 2*want {
		t.Fatalf("burst 2 delivered %d total, want %d", w.delivered, 2*want)
	}
	after := slabCaps(w.set)
	for i := range high {
		if after[i] != high[i] {
			t.Errorf("slab %d capacity grew across identical bursts: %d -> %d", i, high[i], after[i])
		}
	}
	for src := range w.set.xbuf {
		for dst := range w.set.xbuf[src] {
			if n := len(w.set.xbuf[src][dst]); n != 0 {
				t.Errorf("xbuf[%d][%d] holds %d undrained messages after Run", src, dst, n)
			}
		}
	}
}

// TestExchangeStalePayloadPoisoning asserts that after a run every
// consumed slab entry and every vacated inbox slot are zeroed: a
// reference kept past delivery reads nil handlers and nil payloads, never
// a previous window's message.
func TestExchangeStalePayloadPoisoning(t *testing.T) {
	w := newExWorkload(t, 1)
	w.burst(t, 16, 9)

	checkPoisoned := func(name string, buf []xmsg) {
		t.Helper()
		for i, m := range buf[:cap(buf)] {
			if m.fn != nil || m.arg != nil || m.at != 0 {
				t.Errorf("%s[%d] not poisoned after drain: %+v", name, i, m)
			}
		}
	}
	for src := range w.set.xbuf {
		for dst := range w.set.xbuf[src] {
			checkPoisoned("xbuf", w.set.xbuf[src][dst])
		}
	}
	for p, e := range w.set.engines {
		if e.inbox == nil {
			continue
		}
		for i, ent := range e.inbox.q.buf {
			if ent.fn != nil || ent.arg != nil || ent.at != 0 || ent.seq != 0 {
				t.Errorf("partition %d inbox slot %d not zeroed after the run: %+v", p, i, ent)
			}
		}
	}
}

// TestExchangeSteadyStateAllocs bounds the steady-state window loop: with
// the slabs, the engine agendas, and the message records warm, a full
// burst — scheduling, window execution, exchange, barriers — allocates
// nothing per run.
func TestExchangeSteadyStateAllocs(t *testing.T) {
	w := newExWorkload(t, 1)
	w.burst(t, 16, 9) // reach the high-water mark
	avg := testing.AllocsPerRun(10, func() {
		w.burst(nil, 16, 9)
	})
	if avg > 0 {
		t.Errorf("steady-state burst allocates %.1f times per run, want 0", avg)
	}
}

// TestWindowFusionSkipsQuietStretches pins the fusion bound: a lone
// active partition with sparse events must cross each quiet gap in O(1)
// windows rather than stepping the lookahead. Ten events spaced 1000
// lookaheads apart would cost ~10000 fixed-L windows; fused, the whole
// run takes a small constant per event.
func TestWindowFusionSkipsQuietStretches(t *testing.T) {
	set, err := NewShardSet(exParts, 1, exLookahead)
	if err != nil {
		t.Fatalf("NewShardSet: %v", err)
	}
	const events = 10
	fired := 0
	for i := 0; i < events; i++ {
		set.Engine(0).MustScheduleArg(Time(i)*1000*exLookahead, func(any) { fired++ }, nil)
	}
	windows := 0
	if err := set.Run(exDeadline, func(Time) bool { windows++; return false }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != events {
		t.Fatalf("fired %d events, want %d", fired, events)
	}
	if max := 2*events + 2; windows > max {
		t.Errorf("sparse schedule took %d windows, want <= %d (fusion must skip quiet stretches)", windows, max)
	}
}

// BenchmarkShardDrain measures the exchange into the inbox: each op is one
// window of star traffic over 33 partitions, the fat-tree's shape of 32
// pods around a core partition. Every leaf sends 4 messages to the hub
// and the hub 4 to every leaf, each sender's messages in time order and
// the leaves' interleaved in time, so the hub's inbox merges. drain
// delivers the 256 messages into the inboxes and the engines run them. It
// must report 0 allocs/op.
func BenchmarkShardDrain(b *testing.B) {
	const (
		parts  = 33
		perSrc = 4
		window = 4 * exLookahead
	)
	set, err := NewShardSet(parts, 1, exLookahead)
	if err != nil {
		b.Fatal(err)
	}
	noop := func(any) {}
	var arg exMsg
	round := func(base Time) {
		for k := 0; k < perSrc; k++ {
			for leaf := 1; leaf < parts; leaf++ {
				at := base + exLookahead + Time(k)*window/perSrc + Time(leaf)*Microsecond/10
				set.MustSend(leaf, 0, at, noop, &arg)
				set.MustSend(0, leaf, at, noop, &arg)
			}
		}
		if err := set.drain(); err != nil {
			b.Fatal(err)
		}
		for _, e := range set.engines {
			e.RunUntil(base + window)
		}
	}
	round(0) // grow the slabs and the inboxes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(Time(i+1) * window)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*perSrc*(parts-1)), "ns/msg")
}
