package sim

import (
	"hash/fnv"
	"slices"
	"testing"
)

// The sharded engine's contract is that the logical execution — which
// events run, when, and in what per-partition order — is identical to the
// single-engine reference for any worker count. This test drives a
// randomized schedule/tombstone/cross-send workload over a fixed set of four
// logical partitions through (a) one plain Engine (the reference model:
// all partitions share the agenda) and (b) a ShardSet at 1, 2, and 4
// workers, and asserts identical event-order digests — mirroring the
// single-engine reference-model test in agenda_test.go.

const (
	refParts     = 4
	refLookahead = 30 * Microsecond
)

// shardModel abstracts the two executions: partition-local scheduling,
// lookahead-respecting cross-partition sends, and per-partition clocks.
type shardModel interface {
	schedule(p int, delay Time, arg *shardRefEvent)
	send(src, dst int, delay Time, arg *shardRefEvent)
	now(p int) Time
	run() error
}

// shardRefEvent is the workload's unit: one logical event pinned to a
// partition, carrying a unique id, a remaining spawn budget, and a
// tombstone that makes its handler skip its work.
type shardRefEvent struct {
	p     int
	id    uint64
	depth int
	dead  bool
}

// refWorkload holds the per-partition deterministic state shared by both
// models: RNG streams, id counters, scheduled local events, and execution
// logs.
type refWorkload struct {
	t     *testing.T
	model shardModel
	rngs  []*RNG
	next  []uint64
	local [][]*shardRefEvent
	logs  [][]uint64 // alternating id, at pairs
}

func newRefWorkload(t *testing.T, m shardModel) *refWorkload {
	w := &refWorkload{
		t:     t,
		model: m,
		rngs:  make([]*RNG, refParts),
		next:  make([]uint64, refParts),
		local: make([][]*shardRefEvent, refParts),
		logs:  make([][]uint64, refParts),
	}
	for p := 0; p < refParts; p++ {
		w.rngs[p] = NewRNG(0xabcd_0000 + uint64(p))
	}
	return w
}

func (w *refWorkload) newID(p int) uint64 {
	w.next[p]++
	return uint64(p)<<32 | w.next[p]
}

// handle is the event body: unless tombstoned, log, then (budget
// permitting) spawn local children, tombstone a random earlier local
// event, and cross-send. All
// random draws come from the partition's own stream, so the draw sequence
// depends only on the partition's event order — the property under test.
func (w *refWorkload) handle(ev *shardRefEvent) {
	if ev.dead {
		return
	}
	p := ev.p
	w.logs[p] = append(w.logs[p], ev.id, uint64(w.model.now(p)))
	if ev.depth <= 0 {
		return
	}
	rng := w.rngs[p]
	// Local children: odd nanosecond delays from a wide range keep
	// cross-partition timestamp collisions (whose tie order is
	// intentionally unspecified across models) out of the fixed seed's
	// trajectory; same-partition ties remain covered by FIFO order.
	for n := rng.Intn(3); n > 0; n-- {
		child := &shardRefEvent{p: p, id: w.newID(p), depth: ev.depth - 1}
		w.model.schedule(p, Time(rng.Intn(120_000)*2+1), child)
		w.local[p] = append(w.local[p], child)
	}
	// Tombstone a deterministic earlier event (often already executed).
	if len(w.local[p]) > 0 && rng.Intn(3) == 0 {
		w.local[p][rng.Intn(len(w.local[p]))].dead = true
	}
	// Cross-partition send, at least a lookahead away.
	if rng.Intn(2) == 0 {
		dst := rng.Intn(refParts)
		msg := &shardRefEvent{p: dst, id: w.newID(p), depth: ev.depth - 1}
		w.model.send(p, dst, refLookahead+Time(rng.Intn(90_000)*2+1), msg)
	}
}

func (w *refWorkload) seed() {
	for p := 0; p < refParts; p++ {
		for i := 0; i < 40; i++ {
			ev := &shardRefEvent{p: p, id: w.newID(p), depth: 4}
			w.model.schedule(p, Time(w.rngs[p].Intn(200_000)*2+1), ev)
			w.local[p] = append(w.local[p], ev)
		}
	}
}

func (w *refWorkload) digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for p := 0; p < refParts; p++ {
		for _, v := range w.logs[p] {
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// singleModel is the reference: all partitions share one engine, so the
// global (time, seq) order decides everything.
type singleModel struct {
	eng *Engine
	fn  ArgHandler
}

func (m *singleModel) schedule(p int, delay Time, arg *shardRefEvent) {
	m.eng.MustScheduleArg(delay, m.fn, arg)
}
func (m *singleModel) send(src, dst int, delay Time, arg *shardRefEvent) {
	m.eng.MustScheduleArg(delay, m.fn, arg)
}
func (m *singleModel) now(int) Time { return m.eng.Now() }
func (m *singleModel) run() error   { m.eng.Run(); return nil }

// shardedModel executes the same workload on a ShardSet.
type shardedModel struct {
	set *ShardSet
	fn  ArgHandler
}

func (m *shardedModel) schedule(p int, delay Time, arg *shardRefEvent) {
	m.set.Engine(p).MustScheduleArg(delay, m.fn, arg)
}
func (m *shardedModel) send(src, dst int, delay Time, arg *shardRefEvent) {
	m.set.MustSend(src, dst, m.set.Engine(src).Now()+delay, m.fn, arg)
}
func (m *shardedModel) now(p int) Time { return m.set.Engine(p).Now() }
func (m *shardedModel) run() error {
	return m.set.Run(Time(1)<<50, nil)
}

func runRefWorkload(t *testing.T, m shardModel) uint64 {
	t.Helper()
	w := newRefWorkload(t, m)
	switch mm := m.(type) {
	case *singleModel:
		mm.fn = func(arg any) { w.handle(arg.(*shardRefEvent)) }
	case *shardedModel:
		mm.fn = func(arg any) { w.handle(arg.(*shardRefEvent)) }
	}
	w.seed()
	if err := m.run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return w.digest()
}

// TestShardExchangeReferenceModel is the cross-shard exchange coverage
// required by the sharded-engine refactor: identical digests for the
// single-engine reference and ShardSet executions at 1, 2, and 4 workers.
func TestShardExchangeReferenceModel(t *testing.T) {
	want := runRefWorkload(t, &singleModel{eng: NewEngine()})
	for _, workers := range []int{1, 2, 4} {
		set, err := NewShardSet(refParts, workers, refLookahead)
		if err != nil {
			t.Fatal(err)
		}
		got := runRefWorkload(t, &shardedModel{set: set})
		if got != want {
			t.Errorf("workers=%d: digest %#016x, want %#016x", workers, got, want)
		}
	}
}

// TestShardSendLookaheadViolation pins the conservative contract: a
// cross-partition message inside the lookahead window is rejected.
func TestShardSendLookaheadViolation(t *testing.T) {
	set, err := NewShardSet(2, 1, refLookahead)
	if err != nil {
		t.Fatal(err)
	}
	if set.Partitions() != 2 || set.Workers() != 1 || set.Lookahead() != refLookahead {
		t.Fatalf("accessors: %d partitions, %d workers, lookahead %v", set.Partitions(), set.Workers(), set.Lookahead())
	}
	fn := ArgHandler(func(any) {})
	if err := set.Send(0, 1, refLookahead-1, fn, nil); err == nil {
		t.Fatal("lookahead violation accepted")
	}
	if err := set.Send(0, 1, refLookahead, fn, nil); err != nil {
		t.Fatalf("boundary send rejected: %v", err)
	}
}

// TestShardGlobalOrdering checks the barrier semantics of a global: at g
// it runs before every partition event at g.
func TestShardGlobalOrdering(t *testing.T) {
	set, err := NewShardSet(2, 1, Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	at := 50 * Microsecond
	set.Engine(0).MustScheduleArg(at, func(any) { order = append(order, "event") }, nil)
	if err := set.ScheduleGlobal(at, func() { order = append(order, "global") }); err != nil {
		t.Fatal(err)
	}
	if err := set.Run(Second, nil); err != nil {
		t.Fatal(err)
	}
	if want := []string{"global", "event"}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestShardGlobalScheduleRefreshesNextEvent guards the coordinator's
// cached next-event time (ShardSet.stamps): a global schedules an event
// into partition 1, or pushes one onto a stream opened there before Run,
// that is earlier than the time cached for it, and that event sends to
// partition 0 at exactly the lookahead. The coordinator must see the new
// event through the partition's stamp, which a push moves though it takes
// no new sequence number: with the stale
// time, partition 0 would run past the message's instant before partition
// 1 sends it. Each partition logs into its own slice, so two workers may
// run them concurrently.
func TestShardGlobalScheduleRefreshesNextEvent(t *testing.T) {
	const L = Microsecond
	for _, workers := range []int{1, 2} {
		for _, stepping := range []bool{false, true} {
			for _, push := range []bool{false, true} {
				set, err := NewShardSet(2, workers, L)
				if err != nil {
					t.Fatal(err)
				}
				logs := make([][]Time, 2)
				logFn := func(p int) ArgHandler {
					return func(any) { logs[p] = append(logs[p], set.Engine(p).Now()) }
				}
				log0, log1 := logFn(0), logFn(1)
				set.Engine(0).MustScheduleArg(10*Microsecond, log0, nil)
				set.Engine(0).MustScheduleArg(30*Microsecond, log0, nil)
				set.Engine(1).MustScheduleArg(100*Microsecond, log1, nil)
				send := func(any) {
					log1(nil)
					set.MustSend(1, 0, set.Engine(1).Now()+L, log0, nil)
				}
				str, err := set.Engine(1).Stream(1, send)
				if err != nil {
					t.Fatal(err)
				}
				ranGlobal := false
				err = set.ScheduleGlobal(15*Microsecond, func() {
					ranGlobal = true
					if !push {
						set.Engine(1).MustScheduleArg(5*Microsecond, send, nil)
					} else if err := str.Push(0, 20*Microsecond, nil); err != nil {
						t.Fatal(err)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				set.SetStepping(stepping)
				if err := set.Run(Second, nil); err != nil {
					t.Fatalf("workers %d stepping %v push %v: %v", workers, stepping, push, err)
				}
				want0 := []Time{10 * Microsecond, 21 * Microsecond, 30 * Microsecond}
				want1 := []Time{20 * Microsecond, 100 * Microsecond}
				if !ranGlobal || !slices.Equal(logs[0], want0) || !slices.Equal(logs[1], want1) {
					t.Fatalf("workers %d stepping %v push %v: global ran %v, partition 0 ran at %v, partition 1 at %v; want %v and %v",
						workers, stepping, push, ranGlobal, logs[0], logs[1], want0, want1)
				}
			}
		}
	}
}
