package sim

// Sharded conservative parallel discrete-event simulation.
//
// A ShardSet partitions one logical simulation across N sub-engines
// (partitions), each with its own agenda and clock. Partitions are a
// property of the model (for the fat-tree fabric: one per pod, plus one for
// the core switches and the controller), not of the machine — the worker
// count only decides how many partitions execute concurrently, so the
// logical execution, and therefore every simulation result, is
// worker-count-invariant by construction.
//
// Synchronization is conservative with a fixed lookahead L: every
// cross-partition interaction must take at least L of simulated time (in
// the fat-tree, the inter-switch link latency — the only links that cross a
// pod boundary are aggregation↔core hops). The coordinator repeatedly
// computes per-partition window ends and lets every partition execute its
// events strictly before its end in parallel, exchanging cross-partition
// messages at the barrier between windows.
//
// # Window fusion
//
// Partition p's window end is min(minOther(p)+L, next(p)+2L), where
// minOther(p) is the earliest pending event time in any *other* partition
// and next(p) is p's own. The first term is the direct bound: a message
// into p sent by partition q at time t carries timestamp ≥ t+L ≥
// minOther(p)+L. The second is the echo bound: p's own earliest event can
// send a message that a neighbor executes and answers, landing back in p
// no earlier than next(p)+2L — without it a partition running far ahead
// of a quiet fabric could outrun its own replies. Every longer influence
// chain is rooted at some partition's pending event and pays one hop of L
// per partition crossed, so these two terms cover all of them. Compared
// to a uniform end of tNext+L this fuses windows: partitions ahead of the
// global minimum run long stretches without barriers, empty partitions
// are skipped entirely, and a lone active partition steps 2L per window
// toward the next global barrier with no worker handoff. Fusion changes
// how executed events are grouped into windows, never their per-partition
// order, and the exchange's deterministic merge keeps delivery order a
// pure function of message timestamps and source coordinates — results
// are identical to the unfused schedule except for the order of exact
// cross-partition timestamp ties, which is intentionally unspecified (see
// the exchange ordering rule below and DESIGN.md §11).
//
// Cross-partition messages travel through per-(src,dst) append-only slab
// buffers, written only by the sending partition's worker during a window
// and drained only by the coordinator at barriers. Slabs are recycled like
// the engine's heap: the drain poisons consumed entries and re-slices to
// length zero keeping capacity, so the steady-state exchange allocates
// nothing. The drain delivers each destination's messages into its
// engine's inbox lane in (time, source shard, source buffer position)
// order, which is deterministic regardless of worker interleaving.
//
// Global events (at, fn) run at barriers between windows, sequentially on
// the coordinator, and may touch any partition's state. A global at g runs
// before every partition event at g (windows are bounded to end at g).
// Globals model the run-level control actions — periodic samplers and
// controller epochs — that must observe a consistent cross-partition cut.
//
// # Stepping
//
// A model that must act on a run-wide condition the moment it becomes
// true (the cluster runner's completion-count triggers) turns stepping on.
// Every window then ends at m1+1, where m1 is the earliest pending event
// time: each barrier follows exactly one instant, at which every partition
// has executed its events at m1 and none later. The hook of such a barrier
// sees end = m1+1 and may act at instant end-1 as if it were the last
// event there. A global due at m1+1 runs at the next barrier, after that
// hook, so hook actions order before it. Stepping changes the grouping of
// windows, never the per-partition event order, and it runs every window
// inline: an instant's work is far smaller than a worker handoff.
//
// Execution uses a pool of persistent workers spawned once per Run:
// between windows the workers park on per-worker wake channels, and each
// window is one epoch — the coordinator publishes the window bounds, wakes
// as many workers as there are active partitions, and waits for the last
// worker to signal the barrier. Windows with at most one active partition,
// and stepped windows, run inline on the coordinator with no wakeup at all.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// Sharding errors.
var (
	// ErrLookahead reports a cross-partition message violating the
	// conservative lookahead bound.
	ErrLookahead = errors.New("sim: cross-shard message inside lookahead window")
	// ErrDeadline reports a sharded run exceeding its watchdog deadline.
	ErrDeadline = errors.New("sim: sharded run exceeded deadline")
)

// xmsg is one cross-partition message: an ArgHandler invocation scheduled
// into the destination partition at an absolute instant.
type xmsg struct {
	at  Time
	fn  ArgHandler
	arg any
}

// globalEvent is a barrier-synchronized event (see package comment above).
type globalEvent struct {
	at  Time
	seq uint64
	fn  func()
}

// ShardSet couples N partition engines with the exchange and the barrier
// coordinator. Construct with NewShardSet, populate the partitions (models
// schedule their initial events on Engine(p) directly), then call Run.
type ShardSet struct {
	engines   []*Engine
	lookahead Time
	workers   int

	// xbuf[src][dst] is the (src→dst) message slab. During a window only
	// src's worker appends; between windows only the coordinator reads.
	// xtotal[src] counts src's buffered messages across all destinations
	// (same ownership), so the drain skips a silent source in O(1).
	xbuf   [][][]xmsg
	xtotal []int

	globals []globalEvent
	gseq    uint64

	// stepping bounds every window to one instant (see Stepping above).
	stepping bool

	// running guards Send/ScheduleGlobal misuse from within windows.
	inWindow atomic.Bool

	// Window-loop scratch, written by the coordinator between windows and
	// read by workers during one (the wake send publishes them). nexts[p]
	// is p's earliest pending event as of p's stamp stamps[p], ends[p]
	// its window end.
	nexts  []Time
	stamps []uint64
	ends   []Time

	// Persistent worker pool, live only inside a Run call with workers>1:
	// claim is the shared partition-claim cursor, wake[w] delivers worker
	// w's epoch start, remaining counts workers still inside the window,
	// and done carries the last worker's barrier signal. A nil wake slice
	// means no pool (sequential mode) and runWindows executes inline.
	claim     atomic.Int64
	remaining atomic.Int64
	wake      []chan struct{}
	done      chan struct{}
}

// NewShardSet builds n partition engines synchronized with the given
// lookahead. workers bounds concurrent window execution: 1 executes
// partitions inline on the calling goroutine (no goroutines at all), which
// is the deterministic reference mode; higher counts run partitions on that
// many persistent worker goroutines. The logical execution is identical
// for every worker count.
func NewShardSet(n int, workers int, lookahead Time) (*ShardSet, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: %d partitions", n)
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: lookahead %v must be positive", lookahead)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	s := &ShardSet{
		engines:   make([]*Engine, n),
		lookahead: lookahead,
		workers:   workers,
		xtotal:    make([]int, n),
		nexts:     make([]Time, n),
		stamps:    make([]uint64, n),
		ends:      make([]Time, n),
	}
	for i := range s.engines {
		s.engines[i] = NewEngine()
		s.nexts[i] = maxTime // an engine with nothing scheduled yet
	}
	s.xbuf = make([][][]xmsg, n)
	for i := range s.xbuf {
		s.xbuf[i] = make([][]xmsg, n)
	}
	return s, nil
}

// Engine returns partition p's engine.
func (s *ShardSet) Engine(p int) *Engine { return s.engines[p] }

// Partitions returns the partition count.
func (s *ShardSet) Partitions() int { return len(s.engines) }

// Lookahead returns the conservative lookahead bound.
func (s *ShardSet) Lookahead() Time { return s.lookahead }

// Workers returns the effective worker count.
func (s *ShardSet) Workers() int { return s.workers }

// Send enqueues a cross-partition message: fn(arg) runs in partition dst at
// absolute instant at. It must be called from src's executing event (or
// from the coordinator between windows) and at must respect the lookahead:
// at ≥ src.Now() + lookahead. Same-partition sends are scheduled directly.
func (s *ShardSet) Send(src, dst int, at Time, fn ArgHandler, arg any) error {
	if src == dst {
		return s.engines[dst].ScheduleArgAt(at, fn, arg)
	}
	if min := s.engines[src].Now() + s.lookahead; at < min {
		return fmt.Errorf("%w: at %v < %v (src %d now %v + lookahead %v)",
			ErrLookahead, at, min, src, s.engines[src].Now(), s.lookahead)
	}
	if fn == nil {
		return ErrNilHandler
	}
	s.xbuf[src][dst] = append(s.xbuf[src][dst], xmsg{at: at, fn: fn, arg: arg})
	s.xtotal[src]++
	return nil
}

// MustSend is Send with the MustSchedule error contract.
func (s *ShardSet) MustSend(src, dst int, at Time, fn ArgHandler, arg any) {
	if err := s.Send(src, dst, at, fn, arg); err != nil {
		panic(err)
	}
}

// ScheduleGlobal registers a barrier event at absolute instant at: it runs
// before any partition event at instant at. Call it before Run, from a
// global event's fn (re-arming periodic globals) or from the Run hook —
// never from partition events.
func (s *ShardSet) ScheduleGlobal(at Time, fn func()) error {
	if fn == nil {
		return ErrNilHandler
	}
	if s.inWindow.Load() {
		return fmt.Errorf("sim: ScheduleGlobal called during a window")
	}
	s.globals = append(s.globals, globalEvent{at: at, seq: s.gseq, fn: fn})
	s.gseq++
	return nil
}

// SetStepping turns stepping (see the package comment) on or off. Call it
// before Run or from the Run hook.
func (s *ShardSet) SetStepping(on bool) { s.stepping = on }

// nextGlobal returns the index of the earliest registered global by
// (at, seq), or -1.
func (s *ShardSet) nextGlobal() int {
	best := -1
	for i, g := range s.globals {
		if best == -1 {
			best = i
			continue
		}
		if b := s.globals[best]; g.at < b.at || (g.at == b.at && g.seq < b.seq) {
			best = i
		}
	}
	return best
}

// maxTime is the latest instant: the sentinel for "no pending work" and
// Engine.Run's horizon.
const maxTime = Time(math.MaxInt64)

// satAdd adds two nonnegative times, saturating at maxTime so window
// bounds computed from the sentinel stay ordered.
func satAdd(a, b Time) Time {
	if c := a + b; c >= a {
		return c
	}
	return maxTime
}

// Run drives the window loop until afterWindow reports completion, the
// agenda (partition events and globals) drains, or the earliest pending
// work exceeds deadline (ErrDeadline — the watchdog). afterWindow, if
// non-nil, runs at every barrier with the window's horizon — the instant
// every partition has executed strictly past; returning true stops the run
// (the cluster layer uses it for its exact completion-count stop). Globals
// run one per barrier, earliest first.
//
// Each iteration computes the two smallest pending event times m1 ≤ m2
// across partitions, then bounds partition p's window by minOther(p)+L
// (m2 when p alone holds m1, else m1 — see the fusion note in the package
// comment), by the earliest global's instant, by m1+1 while stepping, and
// — when no global is pending — by deadline+1, so self-re-arming timers
// cannot fuse past the watchdog. A global runs at the barrier exactly when
// no partition event can precede it (at ≤ m1+L), the same cut the unfused
// schedule used; while stepping, only once no event precedes it at all
// (at ≤ m1), so the hook of the instant before it runs first.
//
// A partition event's Engine.Stop ends that partition's window after the
// event. The barrier that follows runs the hook, with the window's
// horizon, but no global: the stopped partition has not reached the cut a
// global needs. A hook that does not end the run resumes the partition
// where it stopped, in the next window.
func (s *ShardSet) Run(deadline Time, afterWindow func(end Time) bool) error {
	if s.workers > 1 && len(s.engines) > 1 {
		s.startWorkers()
		defer s.stopWorkers()
	}
	for {
		if err := s.drain(); err != nil {
			return err
		}
		m1, m2 := maxTime, maxTime
		atM1 := 0
		for i, e := range s.engines {
			// A partition's earliest event can only have moved if its
			// window ran or something was scheduled on it since the last
			// read (by a global, the Run hook or the exchange drain).
			if s.nexts[i] < s.ends[i] || e.stamp() != s.stamps[i] {
				at, ok := e.NextEventAt()
				if !ok {
					at = maxTime
				}
				s.nexts[i], s.stamps[i] = at, e.stamp()
			}
			at := s.nexts[i]
			switch {
			case at < m1:
				m2 = m1
				m1 = at
				atM1 = 1
			case at == m1:
				if at != maxTime {
					atM1++
					m2 = at
				}
			case at < m2:
				m2 = at
			}
		}
		gi := s.nextGlobal()
		if m1 == maxTime && gi < 0 {
			return nil // fully drained
		}
		barrier := maxTime
		if gi >= 0 {
			barrier = s.globals[gi].at
		}
		if start := min64(m1, barrier); start > deadline {
			return fmt.Errorf("%w: next work at %v, deadline %v", ErrDeadline, start, deadline)
		}
		hardCap := barrier
		if barrier == maxTime {
			hardCap = satAdd(deadline, 1)
		}
		reach := satAdd(m1, s.lookahead)
		if s.stepping {
			reach = m1
			hardCap = min64(hardCap, satAdd(m1, 1))
		}
		active := 0
		horizon := hardCap
		for i := range s.engines {
			minOther := m1
			if atM1 == 1 && s.nexts[i] == m1 {
				minOther = m2
			}
			// Two influence bounds (see the fusion note above): a pending
			// event in another partition reaches i after one hop (minOther
			// + L), and i's own earliest event can echo back through a
			// neighbor after two (next + 2L). Chains rooted elsewhere pay
			// two hops from minOther and are covered by the first bound.
			end := min64(satAdd(minOther, s.lookahead), satAdd(s.nexts[i], 2*s.lookahead))
			end = min64(end, hardCap)
			s.ends[i] = end
			if s.nexts[i] < end {
				active++
			}
			if end < horizon {
				horizon = end
			}
		}
		s.runWindows(active)
		if err := s.drain(); err != nil {
			return err
		}
		cut := false
		for i, e := range s.engines {
			cut = cut || (s.nexts[i] < s.ends[i] && e.stopped)
		}
		if gi >= 0 && barrier <= reach && !cut {
			g := s.globals[gi]
			// Remove before running so a re-arm appended by fn is fresh.
			s.globals = append(s.globals[:gi], s.globals[gi+1:]...)
			for _, e := range s.engines {
				e.AdvanceTo(g.at)
			}
			g.fn()
		}
		if afterWindow != nil && afterWindow(horizon) {
			return nil
		}
	}
}

func min64(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// runWindows executes every partition's events strictly before its window
// end. Partitions with nothing to do before their end are skipped. With no
// worker pool, at most one active partition, or stepping on, the
// coordinator runs the window inline — no wakeup, no barrier handshake;
// otherwise it wakes min(workers, active) persistent workers, which claim
// partitions from the shared cursor, and waits for the last one to release
// the epoch barrier.
// Either way each partition's execution is self-contained (cross-partition
// effects only enter buffers), so the interleaving cannot influence
// results.
func (s *ShardSet) runWindows(active int) {
	s.inWindow.Store(true)
	defer s.inWindow.Store(false)
	if s.wake == nil || active <= 1 || s.stepping {
		for i, e := range s.engines {
			if s.nexts[i] < s.ends[i] {
				e.RunBefore(s.ends[i])
			}
		}
		return
	}
	w := s.workers
	if active < w {
		w = active
	}
	s.claim.Store(0)
	s.remaining.Store(int64(w))
	for i := 0; i < w; i++ {
		s.wake[i] <- struct{}{}
	}
	<-s.done
}

// startWorkers spawns the persistent worker pool. Workers park on their
// wake channels between windows and exit when stopWorkers closes them.
// Fresh channels per Run keep a re-entered Run independent of a previous
// call's (already exited) pool.
func (s *ShardSet) startWorkers() {
	s.wake = make([]chan struct{}, s.workers)
	s.done = make(chan struct{}, 1)
	for w := 0; w < s.workers; w++ {
		s.wake[w] = make(chan struct{}, 1)
		go s.worker(s.wake[w])
	}
}

// stopWorkers shuts the pool down and restores inline window execution.
func (s *ShardSet) stopWorkers() {
	for _, ch := range s.wake {
		close(ch)
	}
	s.wake = nil
}

// worker is one persistent window worker. Each wakeup is one epoch: claim
// partitions from the shared cursor, run the active ones to their window
// ends, and release the barrier when the last worker finishes. The bounds
// in nexts/ends are written by the coordinator before the wake send, which
// orders them; the decrement of remaining orders each worker's engine
// writes before the coordinator's next read.
func (s *ShardSet) worker(wake <-chan struct{}) {
	for range wake {
		for {
			i := int(s.claim.Add(1)) - 1
			if i >= len(s.engines) {
				break
			}
			if s.nexts[i] < s.ends[i] {
				s.engines[i].RunBefore(s.ends[i])
			}
		}
		if s.remaining.Add(-1) == 0 {
			s.done <- struct{}{}
		}
	}
}

// drain moves every buffered cross-partition message into its destination
// engine's inbox. Each destination takes its messages in (time, source
// shard, source buffer position) order: it takes its sources' slabs in
// source order, each slab stable-sorted by time (a sender's slab is
// already sorted whenever its hops share one delay), and the inbox merge
// puts a message after every queued one due at its instant. That order
// fixes the engine's FIFO tie-break, making the merged order independent
// of worker scheduling.
//
// The slabs are reused across windows: consumed entries are cleared
// (poisoned) so no handler or payload reference outlives its delivery,
// then the slices are cut back to length zero keeping capacity. Past the
// high-water mark the exchange allocates nothing.
func (s *ShardSet) drain() error {
	for src, bufs := range s.xbuf {
		if s.xtotal[src] == 0 {
			continue
		}
		s.xtotal[src] = 0
		for dst, buf := range bufs {
			if len(buf) == 0 {
				continue
			}
			if !slices.IsSortedFunc(buf, cmpXmsg) {
				slices.SortStableFunc(buf, cmpXmsg)
			}
			err := s.engines[dst].deliver(buf)
			clear(buf)
			bufs[dst] = buf[:0]
			if err != nil {
				return fmt.Errorf("sim: exchange delivery to shard %d: %w", dst, err)
			}
		}
	}
	return nil
}

// cmpXmsg orders exchange messages by time.
func cmpXmsg(a, b xmsg) int {
	switch {
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	}
	return 0
}
