package lint

const ruleNameHotAlloc = "hotalloc"

// hotAllocRule enforces allocation hygiene on the hot path: every
// function reachable from a sim.ArgHandler root runs once per simulated
// event — millions of times per figure — so per-event allocations there
// dominate wall time and GC pressure. Three patterns are flagged, each
// with its call chain from the scheduling root:
//
//   - a capturing closure passed to Schedule/ScheduleAt/MustSchedule:
//     each call allocates the closure and its captures; the engine
//     provides ScheduleArg exactly so state can travel in a pooled
//     argument next to a func value stored once (the repo-wide idiom is
//     `x.fooFn = func(arg any) { x.foo(arg.(*T)) }` built in the
//     constructor);
//   - a non-pointer-shaped value passed as the arg of
//     ScheduleArg/ScheduleArgAt/MustScheduleArg/Send (on an engine or a
//     lane): converting it to `any` boxes it on the heap at every event —
//     pass a pooled pointer;
//   - `append` in a loop to a slice declared without capacity
//     (`var x []T`): the growth doublings allocate on every hot
//     invocation — preallocate with make([]T, 0, n).
//
// Two root kinds feed the reachability set: ArgHandler roots (event
// bodies) and the exchange root (*ShardSet).drain, which moves every
// cross-partition message once per window. The exchange lives in sim's
// shard.go — on the concurrency allowlist — so the skip below is
// package-granular (exec, kvnet), not file-granular: an allocation
// regression on the exchange path is a lint error, not a profile
// surprise.
//
// Cold code — constructors, per-run setup, anything no root reaches —
// may use all three patterns freely.
type hotAllocRule struct{}

func (hotAllocRule) Name() string { return ruleNameHotAlloc }

func (hotAllocRule) Doc() string {
	return "no per-event allocation on ArgHandler- or exchange-reachable paths: store handlers once and use ScheduleArg, pass pooled pointers (no interface boxing), preallocate appended slices"
}

func (hotAllocRule) Check(a *Analysis, rep *Reporter) {
	kinds := []string{rootArgHandler, rootExchange}
	a.forEachReachable(kinds, func(n *Node, e *reachEntry) {
		if n.pkgAllowlisted() {
			return
		}
		for _, eff := range n.effects {
			switch eff.kind {
			case effSchedClosure:
				rep.ReportChain(eff.pos, e.Chain(a.Fset),
					"hot path: %s allocates per event; store a sim.ArgHandler once and pass the state via ScheduleArg", eff.desc)
			case effBoxedArg:
				rep.ReportChain(eff.pos, e.Chain(a.Fset),
					"hot path: %s per event; pass a pooled pointer instead", eff.desc)
			case effBareAppend:
				rep.ReportChain(eff.pos, e.Chain(a.Fset),
					"hot path: %s; preallocate with make(T, 0, n) outside the loop", eff.desc)
			}
		}
	})
}

func init() { register(hotAllocRule{}) }
