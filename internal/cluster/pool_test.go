package cluster

import (
	"errors"
	"slices"
	"testing"

	"netrs/internal/fabric"
	"netrs/internal/sim"
)

// TestPooledRecordsStayDead checks the pending and packet pooling on one
// partition: nothing still reachable may sit on a free list, and every
// live record resolves from its own handle. The CliRS-R95 run with
// cancellation exercises duplicates, their timers, and cancelled losers;
// the NetRS-ILP run the in-network path across a plan deployment. Every
// duplicate timer and delayed launch is checked as it fires, and every
// live record once the run stops — then again after running on past the
// stop, so the timers still armed fire through the check too. The
// perpetual processes keep the agenda from ever emptying, so the run-on is
// one simulated second: far past any duplicate timer. By then both pools
// balance: every packet, a cancelled duplicate's included, is back on a
// free list, and so is every pending record.
func TestPooledRecordsStayDead(t *testing.T) {
	r95 := smallConfig(SchemeCliRSR95)
	r95.Utilization = 1.0 // deep queues make losers cancelable
	r95.CancelDuplicates = true
	for _, cfg := range []Config{r95, smallConfig(SchemeNetRSILP)} {
		t.Run(cfg.Scheme.String(), func(t *testing.T) {
			r := &runner{cfg: cfg}
			if err := r.setup(); err != nil {
				t.Fatal(err)
			}
			st := r.parts[0]
			recycled := func(p *pending) bool { return slices.Contains(st.pendFree, p) }
			fired := 0
			redundant := r.redundantFn
			r.redundantFn = func(arg any) {
				fired++
				if recycled(arg.(*pending)) {
					t.Error("duplicate timer fired on a recycled pending")
				}
				redundant(arg)
			}
			launch := st.launchFn
			st.launchFn = func(arg any) {
				if p := st.lookup(arg.(*fabric.Packet).Handle); p == nil || recycled(p) {
					t.Error("delayed launch fired on a recycled record")
				}
				launch(arg)
			}
			checkLive := func(when string) {
				t.Helper()
				for _, p := range st.pends {
					if p.refs == 0 {
						continue // a free slot
					}
					if recycled(p) || st.lookup(p.handle()) != p {
						t.Errorf("%s: live request %d references a recycled record", when, p.logicalIdx)
					}
				}
				if hasDuplicate(st.pendFree) {
					t.Errorf("%s: a record sits on the free list twice", when)
				}
			}

			if err := r.start(); err != nil {
				t.Fatal(err)
			}
			if err := r.drive(); err != nil {
				t.Fatal(err)
			}
			checkLive("at stop")
			r.eng.RunUntil(r.eng.Now() + sim.Second)
			checkLive("after drain")
			if n := r.net.PacketsInUse(); n != 0 {
				t.Errorf("%d packets are still in use after the drain", n)
			}
			if len(st.pendFree) != len(st.pends) {
				t.Errorf("%d of %d pending records are free after the drain", len(st.pendFree), len(st.pends))
			}

			if len(st.pendFree) == 0 {
				t.Fatal("no pending was recycled; the check is vacuous")
			}
			if cfg.Scheme == SchemeCliRSR95 && (fired == 0 || st.cancelled == 0) {
				t.Fatalf("%d timers fired, %d duplicates cancelled; the check is vacuous", fired, st.cancelled)
			}
		})
	}
}

func hasDuplicate[T comparable](xs []T) bool {
	seen := make(map[T]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			return true
		}
		seen[x] = true
	}
	return false
}

// TestDelayedLaunchOfAnsweredRequest covers two paths a run rarely takes.
// A rate-delayed CliRS send whose request was answered in the meantime
// returns its packet instead of sending it, and a stray response, whose
// record is gone, is released uncounted. Both leave the pools balanced.
func TestDelayedLaunchOfAnsweredRequest(t *testing.T) {
	r := &runner{cfg: smallConfig(SchemeCliRS)}
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	st, c := r.parts[0], r.clients[0]
	p := st.newPending(pending{client: c, replicas: []int{0, 1, 2}, primary: -1})
	handle := p.handle()
	pkt := r.newPacket(st, p)
	pkt.Dst = r.serverHostOf[0]
	st.eng.MustScheduleArg(sim.Millisecond, st.launchFn, pkt)
	p.done = true
	st.release(p) // the arrival's reference; the packet holds the other
	st.eng.RunUntil(2 * sim.Millisecond)
	if n := r.net.PacketsInUse(); n != 0 {
		t.Errorf("%d packets in use after the answered request's launch", n)
	}
	if st.lookup(handle) != nil || len(st.pendFree) != len(st.pends) {
		t.Error("the answered request's record was not freed")
	}

	stray := r.net.NewPacketIn(c.part)
	stray.Handle = handle
	r.clientHandler(c)(stray)
	if n := r.net.PacketsInUse(); n != 0 {
		t.Errorf("%d packets in use after a stray response", n)
	}
	if st.completed != 0 || st.degraded != 0 {
		t.Errorf("a stray response counted: %d completed, %d degraded", st.completed, st.degraded)
	}
}

// TestShardedPoolsBalance runs CliRS-R95 with rate control at Shards 2,
// one partition per pod. A rate-delayed send whose request was answered
// first returns its packet unrouted, from the client's partition, and
// that packet must go back to the client partition's own free list: under
// -race, clients in two partitions releasing into one shared list is a
// data race. A few clients on three servers load each client's rate
// limiters enough to delay sends. After a simulated second of drain both pools balance on every
// partition.
func TestShardedPoolsBalance(t *testing.T) {
	cfg := smallConfig(SchemeCliRSR95)
	cfg.Utilization = 1.0
	cfg.Servers = 3
	cfg.Clients = 4
	cfg.Generators = 4
	cfg.Requests = 8000
	cfg.Shards = 2
	if !cfg.RateControl {
		t.Fatal("rate control is off; no send is delayed")
	}
	r := &runner{cfg: cfg}
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	late := make([]int, len(r.parts)) // each written by its own partition
	for i, st := range r.parts {
		launch := st.launchFn
		st.launchFn = func(arg any) {
			if st.lookup(arg.(*fabric.Packet).Handle).done {
				late[i]++
			}
			launch(arg)
		}
	}
	if err := r.start(); err != nil {
		t.Fatal(err)
	}
	if err := r.drive(); err != nil {
		t.Fatal(err)
	}
	var now sim.Time
	for _, st := range r.parts {
		now = max(now, st.eng.Now())
	}
	if err := r.set.Run(now+sim.Second, nil); err != nil && !errors.Is(err, sim.ErrDeadline) {
		t.Fatal(err)
	}

	if n := r.net.PacketsInUse(); n != 0 {
		t.Errorf("%d packets are still in use after the drain", n)
	}
	latePartitions := 0
	for i, st := range r.parts {
		if len(st.pendFree) != len(st.pends) {
			t.Errorf("partition %d: %d of %d pending records are free after the drain",
				i, len(st.pendFree), len(st.pends))
		}
		if late[i] > 0 {
			latePartitions++
		}
	}
	if latePartitions < 2 {
		t.Fatalf("delayed launches found their request answered in %d partitions (%v), want 2 or more; the check is vacuous",
			latePartitions, late)
	}
}
