package cluster

import (
	"slices"
	"testing"

	"netrs/internal/sim"
)

// TestPooledRecordsStayDead checks the pending/packetCtx/svcReq pooling on
// one partition: nothing still reachable may sit on a free list, and every
// live context resolves from its own handle. The CliRS-R95
// run with cancellation exercises duplicates, their timers, and cancelled
// losers; the NetRS-ILP run the in-network path across a plan deployment.
// Every duplicate timer and delayed launch is checked as it fires, and
// every live context once the run stops — then again after running on past
// the stop, so the timers still armed fire through the check too. The
// perpetual processes keep the agenda from ever emptying, so the run-on is
// one simulated second: far past any duplicate timer. By then every
// svcReq is back in its pool, a cancelled duplicate's included: the pool
// is seeded larger than the run needs, so the run allocates none and the
// count must come back whole.
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
				if ctx := arg.(*packetCtx); slices.Contains(st.ctxFree, ctx) || recycled(ctx.p) {
					t.Error("delayed launch fired on a recycled record")
				}
				launch(arg)
			}
			checkLive := func(when string) {
				t.Helper()
				for _, ctx := range st.ctxs {
					if ctx.p == nil {
						continue // a free slot
					}
					if slices.Contains(st.ctxFree, ctx) || recycled(ctx.p) || st.lookup(ctx.handle()) != ctx {
						t.Errorf("%s: live packet %d references a recycled record", when, ctx.pid)
					}
				}
				if hasDuplicate(st.ctxFree) || hasDuplicate(st.pendFree) || hasDuplicate(st.svcFree) {
					t.Errorf("%s: a record sits on a free list twice", when)
				}
			}

			const svcPool = 1 << 13
			for range svcPool {
				st.svcFree = append(st.svcFree, new(svcReq))
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
			if len(st.svcFree) != svcPool {
				t.Errorf("%d of %d svcReq records are back in the pool after the drain", len(st.svcFree), svcPool)
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
