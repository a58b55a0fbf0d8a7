package cluster

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"time"

	"netrs/internal/c3"
	"netrs/internal/cache"
	"netrs/internal/fabric"
	"netrs/internal/faults"
	"netrs/internal/kv"
	"netrs/internal/placement"
	"netrs/internal/selection"
	"netrs/internal/sim"
	"netrs/internal/stats"
	"netrs/internal/topo"
	"netrs/internal/wire"
	"netrs/internal/workload"
)

// Result reports one experiment run.
type Result struct {
	// Scheme is the scheme under test.
	Scheme Scheme `json:"scheme"`
	// Summary holds the latency statistics of the measured (post-warmup)
	// requests.
	Summary stats.Summary `json:"summary"`
	// Emitted and Completed count logical requests (warmup included).
	Emitted   int `json:"emitted"`
	Completed int `json:"completed"`
	// RSNodes is the number of replica-selection nodes: the client count
	// for CliRS variants, the deployed plan's RSNode count for NetRS.
	RSNodes int `json:"rsnodes"`
	// DegradedGroups counts traffic groups running under DRS.
	DegradedGroups int `json:"degradedGroups"`
	// RedundantSent counts CliRS-R95 duplicate requests.
	RedundantSent uint64 `json:"redundantSent"`
	// CancelledDuplicates counts duplicates withdrawn at their server
	// before service (Config.CancelDuplicates).
	CancelledDuplicates uint64 `json:"cancelledDuplicates"`
	// DegradedResponses counts responses served via the DRS path.
	DegradedResponses uint64 `json:"degradedResponses"`
	// PlanMethod names the placement solver used (NetRS-ILP only).
	PlanMethod placement.Method `json:"planMethod,omitempty"`
	// OperatorSelections counts replica selections performed in-network,
	// summed over all operators.
	OperatorSelections uint64 `json:"operatorSelections"`
	// FailedRSNode records the RSNode ID failed by injection (0 = none).
	FailedRSNode uint16 `json:"failedRSNode,omitempty"`
	// SimulatedSpan is the simulated duration of the run, the instant of
	// its last completion; JSON carries it in nanoseconds.
	SimulatedSpan sim.Time `json:"simulatedSpanNs"`
	// MaxAccelUtilization is the busiest accelerator's utilization.
	MaxAccelUtilization float64 `json:"maxAccelUtilization"`
	// ServerLoadCV is the coefficient of variation of per-server served
	// counts — a load-imbalance measure (herd behavior concentrates load
	// and raises it).
	ServerLoadCV float64 `json:"serverLoadCV"`
	// QueueCVMean is the time-averaged coefficient of variation of
	// instantaneous server queue lengths, sampled every fluctuation
	// interval. It quantifies the load oscillations §I attributes to
	// "herd behavior": simultaneous selections concentrate queueing on
	// momentarily attractive servers, raising the cross-server spread.
	QueueCVMean float64 `json:"queueCVMean"`
	// TraceMs holds the measured requests' latencies when
	// Config.KeepLatencyTrace is set, indexed by measured arrival: entry i
	// is the latency of the request that arrived i-th after warmup. The
	// order does not depend on the partition count. A request that never
	// completes (its server crashed for good) leaves its entry zero.
	TraceMs []float64 `json:"traceMs,omitempty"`
	// Timeline is the time-bucketed latency/DRS-share series of the
	// measured requests, present when Config.TimelineBucket is positive.
	Timeline []stats.TimelineBucket `json:"timeline,omitempty"`
	// Errors records, in occurrence order, deterministic mid-run control
	// errors the run survived: fault events that could not apply and RSP
	// solves that fell back to the standing plan. Empty on a clean run.
	Errors []string `json:"errors,omitempty"`
	// Epochs is the per-epoch plan history when Config.ControllerInterval
	// is positive: one record per periodic controller re-solve.
	Epochs []EpochRecord `json:"epochs,omitempty"`
	// Cache counters, summed over every ToR cache (cache schemes only).
	// CacheHits answered in the switch; CacheMisses consulted the cache
	// and went on to a replica; CacheInvalidations are keys dropped by
	// write coherence messages.
	CacheHits          uint64 `json:"cacheHits,omitempty"`
	CacheMisses        uint64 `json:"cacheMisses,omitempty"`
	CacheAdmissions    uint64 `json:"cacheAdmissions,omitempty"`
	CacheEvictions     uint64 `json:"cacheEvictions,omitempty"`
	CacheInvalidations uint64 `json:"cacheInvalidations,omitempty"`
	// Events counts the executed events by the engine queue that held
	// them (the agenda heap, the fixed-delay lanes, the exchange inbox and
	// the arrival streams), summed over partitions. It is diagnostic only
	// and left out of the golden files (golden:"-"): the split depends on
	// the shard count, where every other field agrees across it.
	Events sim.EventCounts `json:"events" golden:"-"`
}

// CacheHitRate is the fraction of cache-consulted requests answered in
// the network, 0 when the run never consulted a cache.
func (r Result) CacheHitRate() float64 {
	total := r.CacheHits + r.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(total)
}

// EpochRecord summarizes one controller epoch — one firing of the periodic
// RSP re-solve loop enabled by Config.ControllerInterval.
type EpochRecord struct {
	// AtMs is the epoch's instant on the simulated clock.
	AtMs float64 `json:"atMs"`
	// RSNodes and DegradedGroups describe the plan in force after the
	// epoch; MovedGroups counts the groups the epoch re-steered.
	RSNodes        int `json:"rsnodes"`
	MovedGroups    int `json:"movedGroups"`
	DegradedGroups int `json:"degradedGroups"`
	// Kept is true when the epoch deployed nothing — the window was empty
	// or the solve failed (recorded in Result.Errors) — and the previous
	// plan stayed in force.
	Kept bool `json:"kept,omitempty"`
	// SolveWallMs is the wall-clock time the placement solve took. It is
	// diagnostic only: wall time is nondeterministic, so it is left out of
	// the golden files (golden:"-") and reproducible reports.
	SolveWallMs float64 `json:"solveWallMs,omitempty" golden:"-"`
}

// redundantPercentile is CliRS-R95's reissue threshold quantile: a
// request still unanswered at the client's 95th-percentile latency is
// duplicated.
const redundantPercentile = 0.95

// client is one end-host issuing requests. Under CliRS it is a full
// RSNode; under NetRS it only ranks replicas to provide the DRS backup.
type client struct {
	host topo.NodeID
	part int // the host's partition
	sel  *c3.Selector
	p95  *stats.P2Quantile
}

// pending tracks one logical request from its arrival until nothing can
// reach it any more. Each record owns one slot of its partition's table for
// life; gen counts the slot's reuses, so a handle (gen << 32 | slot) names
// one occupancy and goes stale when the record is freed.
type pending struct {
	logicalIdx int
	client     *client
	rgid       int
	replicas   []int
	key        uint64
	write      bool
	created    sim.Time
	done       bool
	primary    int
	// sent counts the packets sent for this request: the primary and at
	// most one CliRS-R95 duplicate. packetID(p, k) names packet k.
	sent int
	// refs counts what may still reach this record: its packets until the
	// client receives or withdraws them, an armed CliRS-R95 timer (until it
	// fires), and the handler working on it. The record returns to its
	// partition's free list when the count drops to zero.
	refs      int
	slot, gen uint32
}

// handle is the reference p's packets carry (fabric.Packet.Handle).
func (p *pending) handle() uint64 { return uint64(p.gen)<<32 | uint64(p.slot) }

// queuedSvc is a CliRS-R95 packet's server-queue ticket and the packet.
type queuedSvc struct {
	ticket kv.Ticket
	pkt    *fabric.Packet
}

// timedRequest is one workload arrival in the refill buffer.
type timedRequest struct {
	at  sim.Time
	req workload.Request
}

// shardState is one partition's slice of the per-request state. Each
// instance is touched only by its own partition's events, so workers never
// contend.
type shardState struct {
	part int
	eng  *sim.Engine
	// arrivals is the stream the partition's clients' arrivals are pushed
	// onto; nil when the partition has no clients.
	arrivals *sim.Stream

	rec      *stats.Recorder
	timeline *stats.Timeline // nil unless Config.TimelineBucket is positive

	arrived, completed             int
	lastDone                       sim.Time
	degraded, redundant, cancelled uint64

	// pends is the slot table of pending records: a response resolves its
	// record from the handle it carries with one index and a generation
	// check. pendFree lists the free records, those whose refs dropped to
	// zero, so the steady-state request flow allocates no new ones.
	pends    []*pending
	pendFree []*pending
	// rank is the scratch a NetRS client ranks its DRS backup into, and
	// dup the scratch a CliRS-R95 duplicate lists its candidates in.
	rank []int
	dup  []int

	// launchFn is the shared handler for rate-control-delayed CliRS sends
	// in this partition (closure-free scheduling; the packet is the
	// argument).
	launchFn sim.ArgHandler
}

// newPending takes a pending off the partition's free list, or adds one to
// the slot table when the list is dry, and initializes it to v with one
// reference: the caller's. Slots start at generation 1, so the zero handle
// never resolves.
func (st *shardState) newPending(v pending) *pending {
	var p *pending
	if n := len(st.pendFree); n > 0 {
		p = st.pendFree[n-1]
		st.pendFree = st.pendFree[:n-1]
	} else {
		p = &pending{slot: uint32(len(st.pends)), gen: 1}
		st.pends = append(st.pends, p)
	}
	v.slot, v.gen, v.refs = p.slot, p.gen, 1
	*p = v
	return p
}

// release drops one reference to p, recycling the record with the last.
// The record is zeroed, so a stale reader trips over zero values instead
// of old state, and its generation is bumped, so its handle no longer
// resolves.
func (st *shardState) release(p *pending) {
	p.refs--
	if p.refs > 0 {
		return
	}
	*p = pending{slot: p.slot, gen: p.gen + 1}
	st.pendFree = append(st.pendFree, p)
}

// lookup resolves a handle to its live record, or nil once the record has
// been freed.
func (st *shardState) lookup(h uint64) *pending {
	if slot := uint32(h); int(slot) < len(st.pends) && st.pends[slot].gen == uint32(h>>32) {
		return st.pends[slot]
	}
	return nil
}

// runner holds one experiment's live state over the P partitions of a
// sim.ShardSet: a single partition when Shards ≤ 1, the topology's pod
// partitions (plus the control partition) otherwise — DESIGN.md §11.
// Per-request state lives in the partitions; everything else exists once.
type runner struct {
	cfg Config
	// eng is the control partition's engine, the only one at P = 1.
	eng *sim.Engine
	set *sim.ShardSet
	ft  *topo.Topology
	net *fabric.Network
	ctl *fabric.Controller

	ring         *kv.Ring
	servers      []*kv.Server
	serverHostOf []topo.NodeID

	clients []*client
	parts   []*shardState
	// next pulls the workload's arrivals in emission order, from the
	// synthetic source or a replayed trace. refill pushes them onto the
	// partitions' streams a chunk at a time: chunk is the one buffer the
	// pushed arrivals' arguments point into, and head the first arrival
	// not yet pushed, if more is set.
	next  func() (sim.Time, workload.Request, bool)
	chunk []timedRequest
	head  timedRequest
	more  bool

	// tickets holds the server queue entries of CliRS-R95 packets, with
	// the packets, for cross-server cancellation, and is nil unless that
	// is enabled. validate refuses cancellation at Shards > 1, so no two
	// partitions share it.
	tickets map[uint64]queuedSvc

	total, warmup int
	// deployAt is the completion count that deploys the ILP plan (0:
	// never). counted is the completion count onCompletion last saw.
	deployAt, counted int

	plan    placement.Plan
	hasPlan bool

	// invalidationToRs lists the ToR switches holding an enabled cache,
	// in topology order — the write-coherence fan-out targets. Empty
	// unless a cache scheme runs with a positive budget.
	invalidationToRs []topo.NodeID

	injector *faults.Injector
	// trace is Result.TraceMs, allocated once at its final length when
	// Config.KeepLatencyTrace is set: each measured request's completion
	// writes its own slot, so partitions never share one.
	trace        []float64
	errs         []string
	failedRSNode uint16
	rate         float64 // offered load (req/s), synthetic or trace-derived

	queueCV stats.Welford // samples of cross-server queue-length CV
	epochs  []EpochRecord

	// arriveFn delivers an arrival (the argument is a *timedRequest in
	// the refill buffer), redundantFn fires a CliRS-R95 duplicate timer (the
	// argument is the pending request), and refillFn is refill as one func
	// value, so that re-arming it allocates nothing.
	arriveFn    sim.ArgHandler
	redundantFn sim.ArgHandler
	refillFn    func()

	netrs bool
}

// Run executes one experiment and returns its results.
//
// Run is safe for concurrent use: every call builds its own engines, RNG
// streams (all derived from cfg.Seed), topology, servers, selectors, and
// recorders, and the packages it draws on keep no package-level mutable
// state (their only globals are immutable sentinel errors). Concurrent
// runs therefore produce exactly the results sequential runs would —
// the property the parallel sweep executor depends on.
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	r := &runner{cfg: cfg}
	if err := r.setup(); err != nil {
		return Result{}, err
	}
	if err := r.start(); err != nil {
		return Result{}, err
	}
	if err := r.drive(); err != nil {
		return Result{}, err
	}
	return r.result()
}

func (r *runner) setup() error {
	cfg := r.cfg
	// Stream derivation never draws from the root, so every component sees
	// the same generator whatever the construction order.
	root := sim.NewRNG(cfg.Seed)
	r.netrs = cfg.Scheme == SchemeNetRSToR || cfg.Scheme == SchemeNetRSILP || cfg.Scheme == SchemeNetRSCache
	if cfg.CancelDuplicates && cfg.Scheme == SchemeCliRSR95 {
		r.tickets = make(map[uint64]queuedSvc)
	}
	r.arriveFn = func(arg any) { r.onArrival(arg.(*timedRequest).req) }
	r.redundantFn = func(arg any) { r.fireRedundant(arg.(*pending)) }
	r.refillFn = r.refill

	var err error
	if r.ft, err = topo.NewFatTree(cfg.FatTreeK); err != nil {
		return err
	}
	deployment, err := workload.Deploy(r.ft, cfg.Servers, cfg.Clients, root.Stream(1))
	if err != nil {
		return err
	}
	r.serverHostOf = deployment.ServerHosts

	if r.ring, err = kv.NewRing(cfg.Servers, cfg.Replication, cfg.VNodes, cfg.Seed); err != nil {
		return err
	}
	if r.ring.Groups() >= 1<<24 {
		return fmt.Errorf("%d replica groups exceed the 24-bit RGID space: %w", r.ring.Groups(), ErrInvalidParam)
	}

	// Workload rate, needed both for the source and to size the C3 rate
	// limiters at their steady-state operating point. A replayed trace
	// supplies its own empirical rate.
	var traceEntries []workload.TraceEntry
	if tracePath := cfg.Scenario.ReplayTracePath; tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return fmt.Errorf("open trace: %w", err)
		}
		traceEntries, err = workload.ReadTrace(f)
		closeErr := f.Close()
		if err != nil {
			return err
		}
		if closeErr != nil {
			return closeErr
		}
		if len(traceEntries) == 0 {
			return fmt.Errorf("trace %s has no entries: %w", tracePath, ErrInvalidParam)
		}
		for i, e := range traceEntries {
			if e.Client >= cfg.Clients {
				return fmt.Errorf("trace entry %d references client %d of %d: %w",
					i, e.Client, cfg.Clients, ErrInvalidParam)
			}
		}
		i := 0
		r.next = func() (sim.Time, workload.Request, bool) {
			if i == len(traceEntries) {
				return 0, workload.Request{}, false
			}
			e := traceEntries[i]
			i++
			return e.At, workload.Request{Index: i - 1, Client: e.Client, Key: e.Key}, true
		}
	}
	rate, err := workload.UtilizationRate(cfg.Utilization, cfg.Servers, cfg.Parallelism, cfg.MeanServiceTime)
	if err != nil {
		return err
	}
	if len(traceEntries) > 0 {
		span := traceEntries[len(traceEntries)-1].At
		if span > 0 {
			rate = float64(len(traceEntries)) / (float64(span) / float64(sim.Second))
		}
	}
	r.rate = rate

	// The in-network layer. CliRS runs over the same fabric with inert
	// operators (its packets are non-NetRS and are simply forwarded).
	// Every node schedules on its partition's engine.
	shards, parts := cfg.EffectiveShards(), 1
	if shards > 1 {
		parts = r.ft.PodPartitions()
	}
	if r.set, err = sim.NewShardSet(parts, shards, cfg.Fabric.LinkLatency); err != nil {
		return err
	}
	if r.net, err = fabric.NewNetwork(r.set, r.ft, cfg.Fabric, r.operatorSelectorFactory(root, rate)); err != nil {
		return err
	}
	r.eng = r.net.Engine()
	for p := range parts {
		st := &shardState{part: p, eng: r.set.Engine(p)}
		st.launchFn = func(arg any) { r.launchPick(st, arg.(*fabric.Packet)) }
		r.parts = append(r.parts, st)
	}

	// Replica servers, each on its host's partition engine.
	serverCfg := kv.ServerConfig{
		Parallelism:         cfg.Parallelism,
		MeanServiceTime:     cfg.MeanServiceTime,
		FluctuationInterval: cfg.FluctuationInterval,
		FluctuationRange:    cfg.FluctuationRange,
	}
	for i, host := range r.serverHostOf {
		srv, err := kv.NewServer(i, r.net.EngineOf(host), serverCfg, root.Stream(uint64(10+i)))
		if err != nil {
			return err
		}
		r.servers = append(r.servers, srv)
	}

	// Scenario statics (heterogeneous server classes, persistently slow
	// racks) install before the clock starts: no RNG, no events.
	if err := applyScenarioStatics(cfg.Scenario, r.servers, r.ft, r.net); err != nil {
		return err
	}

	// Host handlers.
	for sid, host := range r.serverHostOf {
		if err := r.net.AttachHost(host, r.serverHandler(sid)); err != nil {
			return err
		}
	}
	for _, host := range deployment.ClientHosts {
		c := &client{host: host, part: r.net.PartitionOf(host)}
		if c.sel, err = r.clientSelector(r.parts[c.part].eng); err != nil {
			return err
		}
		if cfg.Scheme == SchemeCliRSR95 {
			if c.p95, err = stats.NewP2Quantile(redundantPercentile); err != nil {
				return err
			}
		}
		r.clients = append(r.clients, c)
		if err := r.net.AttachHost(host, r.clientHandler(c)); err != nil {
			return err
		}
	}

	// Workload: either a trace replay or the synthetic open-loop source.
	if len(traceEntries) > 0 {
		r.total = len(traceEntries)
		r.warmup = int(cfg.WarmupFraction * float64(r.total))
	} else {
		r.warmup = int(cfg.WarmupFraction * float64(cfg.Requests))
		r.total = cfg.Requests + r.warmup
		srcCfg := workload.SourceConfig{
			Generators:    cfg.Generators,
			RatePerSec:    rate,
			Clients:       cfg.Clients,
			DemandSkew:    cfg.DemandSkew,
			HotFraction:   cfg.HotClientFraction,
			Keys:          cfg.Keys,
			ZipfTheta:     cfg.ZipfTheta,
			Total:         r.total,
			ShiftAt:       cfg.DemandShiftAt,
			ShiftFraction: cfg.DemandShiftFraction,
			WriteFraction: cfg.WriteFraction,
			Modulation:    cfg.Scenario.Diurnal,
			Spike:         cfg.Scenario.FlashCrowd,
		}
		src, err := workload.NewSource(srcCfg, root.Stream(3))
		if err != nil {
			return err
		}
		r.next = src.Next
	}
	if cfg.Scheme == SchemeNetRSILP {
		r.deployAt = (r.warmup + 1) / 2
	}
	// One recorder, and one timeline when enabled, per partition. result
	// folds the others into the first, so the first recorder is sized for
	// the whole run and the fold never regrows it.
	measured := r.total - r.warmup
	for i, st := range r.parts {
		hint := measured
		if i > 0 {
			hint = measured/len(r.parts) + 1
		}
		st.rec = stats.NewRecorder(hint)
		if cfg.TimelineBucket > 0 {
			if st.timeline, err = stats.NewTimeline(cfg.TimelineBucket); err != nil {
				return err
			}
		}
	}
	if cfg.KeepLatencyTrace {
		r.trace = make([]float64, measured)
	}
	if len(cfg.Scenario.Faults) > 0 {
		if r.injector, err = faults.NewInjector(r.set.ScheduleGlobal, r, r.total, cfg.Scenario.Faults, r.recordError); err != nil {
			return err
		}
	}
	// Every in-network scheme resolves replica groups through the
	// operators' databases; NetRS adds the selection control plane.
	if r.netrs || cfg.Scheme == SchemeNetCache {
		installOperatorDBs(r.net, r.ring, r.serverHostOf)
	}
	if r.netrs {
		if err := r.setupControlPlane(deployment.ClientHosts, rate); err != nil {
			return err
		}
	}

	// The cache tier: both cache schemes attach one cache per ToR operator.
	if cfg.IsCacheScheme() {
		tors, err := enableCaches(cfg, r.net)
		if err != nil {
			return err
		}
		r.invalidationToRs = tors
	}
	return nil
}

// installOperatorDBs installs the ring-backed replica-group database and
// server locator on every operator (the consistent-hashing view of §IV-A).
func installOperatorDBs(net *fabric.Network, ring *kv.Ring, serverHostOf []topo.NodeID) {
	db := func(rgid uint32) ([]int, error) { return ring.Replicas(int(rgid)) }
	loc := func(server int) (topo.NodeID, error) {
		if server < 0 || server >= len(serverHostOf) {
			return topo.InvalidNode, fmt.Errorf("server %d: %w", server, ErrInvalidParam)
		}
		return serverHostOf[server], nil
	}
	for _, op := range net.OperatorsSorted() {
		op.SetDatabases(db, loc)
	}
}

// enableCaches attaches one hot-key cache to every ToR operator in the
// scheme's mode and returns the invalidation fan-out targets in topology
// order. A zero budget still attaches (inert) caches — NetCache needs the
// pipeline either way — but yields no fan-out targets, so disabled runs
// carry no coherence traffic.
func enableCaches(cfg Config, net *fabric.Network) ([]topo.NodeID, error) {
	mode := fabric.CacheModeStandalone
	if cfg.Scheme == SchemeNetRSCache {
		mode = fabric.CacheModeSelector
	}
	var tors []topo.NodeID
	for _, op := range net.OperatorsSorted() {
		if op.Tier() != topo.TierToR {
			continue
		}
		c, err := cache.New(cache.Config{
			Budget:     cfg.CacheBytes,
			AdmitAfter: cfg.CacheAdmitAfter,
			MinItem:    cfg.CacheItemMinBytes,
			MaxItem:    cfg.CacheItemMaxBytes,
		})
		if err != nil {
			return nil, err
		}
		if err := op.EnableCache(c, mode); err != nil {
			return nil, err
		}
		if cfg.CacheBytes > 0 {
			tors = append(tors, op.Switch())
		}
	}
	return tors, nil
}

// operatorSelectorFactory builds the per-operator replica-selection state
// on the operator's partition engine. aggregateRate (req/s) sizes C3's
// initial rate limit at the steady-state per-server demand: the evaluation
// measures steady state, and with scaled-down request counts a cold
// slow-start could otherwise occupy the whole measured window at small
// service times.
func (r *runner) operatorSelectorFactory(root *sim.RNG, aggregateRate float64) func(uint16, *sim.Engine) (fabric.Selector, error) {
	if !r.netrs {
		// CliRS traffic never consults operator selectors.
		return func(uint16, *sim.Engine) (fabric.Selector, error) { return &selection.RoundRobin{}, nil }
	}
	if alg := r.cfg.OperatorAlgorithm; alg != "" && alg != selection.AlgoC3 {
		return func(id uint16, eng *sim.Engine) (fabric.Selector, error) {
			return selection.New(alg, eng, root.Stream(uint64(500000)+uint64(id)))
		}
	}
	return func(_ uint16, eng *sim.Engine) (fabric.Selector, error) {
		cfg := c3.NewDefaultConfig()
		cfg.RateControl = r.cfg.RateControl
		cfg.Servers = r.cfg.Servers
		perServerPerInterval := aggregateRate *
			(float64(cfg.RateInterval) / float64(sim.Second)) / float64(r.cfg.Servers)
		if perServerPerInterval > cfg.InitialRate {
			cfg.InitialRate = perServerPerInterval
		}
		if cfg.MaxRate < 8*perServerPerInterval {
			cfg.MaxRate = 8 * perServerPerInterval
		}
		return c3.NewSelector(cfg, eng)
	}
}

// clientSelector builds a client's local selection state on its
// partition engine: the full C3 RSNode under CliRS, a feedback-fed ranker
// for DRS backups under NetRS.
func (r *runner) clientSelector(eng *sim.Engine) (*c3.Selector, error) {
	cfg := c3.NewDefaultConfig()
	cfg.ConcurrencyWeight = float64(r.cfg.Clients)
	cfg.RateControl = r.cfg.RateControl && !r.netrs
	cfg.Servers = r.cfg.Servers
	return c3.NewSelector(cfg, eng)
}

// setupControlPlane defines traffic groups, installs the initial (ToR)
// plan, and sizes the C3 concurrency weights.
func (r *runner) setupControlPlane(clientHosts []topo.NodeID, rate float64) error {
	groups, err := buildGroupDefs(r.cfg, r.ft, clientHosts)
	if err != nil {
		return err
	}
	accel := placement.AccelParams{
		Cores:          r.cfg.Fabric.AccelCores,
		SelectionTime:  r.cfg.Fabric.AccelService,
		MaxUtilization: r.cfg.AccelMaxUtilization,
	}
	budget := r.cfg.ExtraHopBudgetFraction * rate
	r.ctl, err = fabric.NewController(r.net, groups, accel, budget, placement.Options{
		Method:   r.cfg.PlacementMethod,
		AllowDRS: true,
	})
	if err != nil {
		return err
	}
	if err := r.ctl.InstallToRPlan(); err != nil {
		return err
	}
	plan, _ := r.ctl.CurrentPlan()
	r.plan = plan
	r.hasPlan = true
	setOperatorWeights(r.net, len(plan.RSNodes))
	return nil
}

// buildGroupDefs derives traffic groups from the client deployment.
func buildGroupDefs(cfg Config, ft *topo.Topology, clientHosts []topo.NodeID) ([]fabric.GroupDef, error) {
	if !cfg.RackLevelGroups {
		groups := make([]fabric.GroupDef, len(clientHosts))
		for i, h := range clientHosts {
			node, err := ft.Node(h)
			if err != nil {
				return nil, err
			}
			groups[i] = fabric.GroupDef{ID: i, Rack: node.Rack, Hosts: []topo.NodeID{h}}
		}
		return groups, nil
	}
	byRack := make(map[int][]topo.NodeID)
	for _, h := range clientHosts {
		node, err := ft.Node(h)
		if err != nil {
			return nil, err
		}
		byRack[node.Rack] = append(byRack[node.Rack], h)
	}
	groups := make([]fabric.GroupDef, 0, len(byRack))
	for rack := 0; rack < ft.Racks(); rack++ {
		hosts, ok := byRack[rack]
		if !ok {
			continue
		}
		// Intervening-level granularity: chunk a rack's clients into
		// groups of at most GroupMaxHosts (§III-A).
		chunk := len(hosts)
		if cfg.GroupMaxHosts > 0 && cfg.GroupMaxHosts < chunk {
			chunk = cfg.GroupMaxHosts
		}
		for start := 0; start < len(hosts); start += chunk {
			end := start + chunk
			if end > len(hosts) {
				end = len(hosts)
			}
			groups = append(groups, fabric.GroupDef{ID: len(groups), Rack: rack, Hosts: hosts[start:end]})
		}
	}
	return groups, nil
}

// setOperatorWeights retunes every operator selector's C3 concurrency
// weight to the number of active RSNodes.
func setOperatorWeights(net *fabric.Network, rsnodes int) {
	if rsnodes < 1 {
		rsnodes = 1
	}
	for _, op := range net.OperatorsSorted() {
		if s, ok := op.Accelerator().Selector().(*c3.Selector); ok {
			// The weight is nonnegative by construction.
			_ = s.SetConcurrencyWeight(float64(rsnodes))
		}
	}
}

// start arms the run: the servers, the queue sampler, the fault schedule,
// and the arrival streams with their first chunk. A pending
// completion-count trigger turns stepping on.
func (r *runner) start() error {
	r.set.SetStepping(r.triggerPending())
	for _, srv := range r.servers {
		srv.Start()
	}
	// The sampling period is the fluctuation interval (or 50 ms when
	// fluctuation is disabled).
	period := r.cfg.FluctuationInterval
	if period <= 0 {
		period = 50 * sim.Millisecond
	}
	r.every(period, r.sampleQueues)
	if r.injector != nil {
		if err := r.injector.Start(); err != nil {
			return err
		}
	}
	// Each partition with clients opens a stream over the run's arrival
	// indices: arrival Index takes the stream's Index-th sequence number,
	// so at equal instants the partition runs its arrivals in arrival
	// order and before every event scheduled from here on.
	for _, c := range r.clients {
		if st := r.parts[c.part]; st.arrivals == nil {
			var err error
			if st.arrivals, err = st.eng.Stream(r.total, r.arriveFn); err != nil {
				return err
			}
		}
	}
	r.chunk = make([]timedRequest, 0, arrivalChunk)
	r.head.at, r.head.req, r.more = r.next()
	r.refill()
	return nil
}

// arrivalChunk is how many arrivals a refill pushes, before it extends
// the chunk over the arrivals tied at the chunk's last instant. It is
// small because the buffer and each stream lane's ring grow to a chunk,
// and a refill costs only one barrier (DESIGN.md §11).
const arrivalChunk = 256

// refill pushes the next chunk of arrivals onto their clients'
// partitions' streams and re-arms itself as a global at the first arrival
// it left out; the last chunk closes the streams instead. Every chunk
// reuses one buffer: a refill runs before the events at its instant and
// after every earlier one, so every arrival of the previous chunk, which
// is due earlier, has run.
func (r *runner) refill() {
	r.chunk = r.chunk[:0]
	for r.more && (len(r.chunk) < arrivalChunk || r.head.at == r.chunk[len(r.chunk)-1].at) {
		r.chunk = append(r.chunk, r.head)
		r.head.at, r.head.req, r.more = r.next()
	}
	for i := range r.chunk {
		a := &r.chunk[i]
		if err := r.parts[r.clients[a.req.Client].part].arrivals.Push(a.req.Index, a.at, a); err != nil {
			panic(fmt.Sprintf("cluster: push arrival: %v", err))
		}
	}
	if !r.more {
		for _, st := range r.parts {
			if st.arrivals != nil {
				st.arrivals.Close()
			}
		}
		return
	}
	if err := r.set.ScheduleGlobal(r.head.at, r.refillFn); err != nil {
		panic(fmt.Sprintf("cluster: schedule global: %v", err))
	}
}

// drive runs the experiment to its last completion.
func (r *runner) drive() error {
	// Generous watchdog: tens of times the expected span.
	expected := float64(r.total) / r.rate
	deadline := sim.FromSeconds(expected*20 + 30)
	if err := r.set.Run(deadline, r.barrier); err != nil && !errors.Is(err, sim.ErrDeadline) {
		return err
	}
	if n := r.completedTotal(); n < r.total {
		return fmt.Errorf("cluster: %d of %d requests completed by watchdog deadline %v",
			n, r.total, deadline)
	}
	return nil
}

// barrier is the Run hook. While a completion-count trigger is pending the
// ShardSet steps, so a barrier whose window ran completions follows
// exactly the instant end-1 they happened at: the hook lifts every clock
// there and fires the triggers at the cut where all of that instant's
// events have run. Stepping stops once none is pending. The run ends at
// the barrier that sees the last completion.
func (r *runner) barrier(end sim.Time) bool {
	n := r.completedTotal()
	if r.triggerPending() && n > r.counted {
		now := end - 1
		for _, st := range r.parts {
			st.eng.AdvanceTo(now)
		}
		r.onCompletion(n, now)
		r.set.SetStepping(r.triggerPending())
	}
	return n >= r.total
}

// triggerPending reports whether a completion-count trigger has yet to
// fire: the ILP deploy (with the monitor reset before it) or a fault
// threshold.
func (r *runner) triggerPending() bool {
	return r.counted < r.deployAt || (r.injector != nil && r.injector.Pending())
}

// completedTotal sums the partition completion counters. It is only read
// at barriers (globals and the Run hook).
func (r *runner) completedTotal() int {
	n := 0
	for _, st := range r.parts {
		n += st.completed
	}
	return n
}

// result summarizes the finished run.
func (r *runner) result() (Result, error) {
	res := Result{
		Scheme:       r.cfg.Scheme,
		FailedRSNode: r.failedRSNode,
		TraceMs:      r.trace,
		Errors:       r.errs,
		Epochs:       r.epochs,
		QueueCVMean:  r.queueCV.Mean(),
	}
	// The partition recorders and timelines fold into the first: the
	// merged multisets are the ones a single partition would hold, and the
	// summaries are order-independent (count, integer-sum mean, sorted
	// percentiles).
	rec, tl := r.parts[0].rec, r.parts[0].timeline
	for i, st := range r.parts {
		if i > 0 {
			rec.Merge(st.rec)
			if tl != nil {
				if err := tl.Merge(st.timeline); err != nil {
					return Result{}, err
				}
			}
		}
		res.Emitted += st.arrived
		res.Completed += st.completed
		res.DegradedResponses += st.degraded
		res.RedundantSent += st.redundant
		res.CancelledDuplicates += st.cancelled
		res.Events = res.Events.Add(st.eng.Events())
		// The logical end of the run is the last completion instant. At
		// P > 1 partition clocks may overrun it by up to one window, but
		// only on invisible timers (server fluctuation redraws): at the
		// last completion nothing is in flight.
		if st.lastDone > res.SimulatedSpan {
			res.SimulatedSpan = st.lastDone
		}
	}
	summary, err := rec.Summarize()
	if err != nil {
		return Result{}, fmt.Errorf("summarize: %w", err)
	}
	res.Summary = summary
	if r.netrs && r.hasPlan {
		res.RSNodes = len(r.plan.RSNodes)
		res.DegradedGroups = len(r.plan.Degraded)
		res.PlanMethod = r.plan.Method
	} else if r.cfg.Scheme == SchemeNetCache {
		for _, op := range r.net.OperatorsSorted() {
			if op.Cache() != nil {
				res.RSNodes++
			}
		}
	} else {
		res.RSNodes = r.cfg.Clients
	}
	if tl != nil {
		res.Timeline = tl.Buckets()
	}
	var loads stats.Welford
	for _, srv := range r.servers {
		loads.Observe(float64(srv.Served()))
	}
	res.ServerLoadCV = loads.CV()
	for _, op := range r.net.OperatorsSorted() {
		if u := op.Accelerator().UtilizationAt(res.SimulatedSpan); u > res.MaxAccelUtilization {
			res.MaxAccelUtilization = u
		}
		res.OperatorSelections += op.Stats().Selections
		collectCacheStats(op, &res)
	}
	return res, nil
}

// collectCacheStats folds one operator's cache counters into the result.
func collectCacheStats(op *fabric.Operator, res *Result) {
	cc := op.Cache()
	if cc == nil {
		return
	}
	s := cc.Stats()
	res.CacheHits += s.Hits
	res.CacheMisses += s.Misses
	res.CacheAdmissions += s.Admissions
	res.CacheEvictions += s.Evictions
	res.CacheInvalidations += s.Invalidations
}

// onArrival is the workload sink: one logical request, executing in the
// issuing client's partition.
func (r *runner) onArrival(req workload.Request) {
	c := r.clients[req.Client]
	st := r.parts[c.part]
	st.arrived++
	rgid := r.ring.GroupOfKey(req.Key)
	replicas, err := r.ring.Replicas(rgid)
	if err != nil {
		return
	}
	p := st.newPending(pending{
		logicalIdx: req.Index,
		client:     c,
		rgid:       rgid,
		replicas:   replicas,
		key:        req.Key,
		write:      req.Write,
		created:    st.eng.Now(),
		primary:    -1,
	})
	if r.netrs || r.cfg.Scheme == SchemeNetCache {
		r.sendNetRS(st, p)
	} else {
		r.sendClientPick(st, p, replicas, true)
	}
	st.release(p) // this handler's reference
}

// packetID names packet k of p from its arrival index, so no partition
// reads a shared counter: the primary (k = 0) gets Index+1 and a CliRS-R95
// duplicate Index+1+total, which keeps IDs unique across the run.
func (r *runner) packetID(p *pending, k int) uint64 {
	return uint64(p.logicalIdx) + 1 + uint64(k)*uint64(r.total)
}

// newPacket takes a packet for p's next send off the partition's pool and
// counts it as one of p's references.
func (r *runner) newPacket(st *shardState, p *pending) *fabric.Packet {
	pkt := r.net.NewPacketIn(st.part)
	pkt.ReqID = r.packetID(p, p.sent)
	pkt.Handle = p.handle()
	pkt.RGID = uint32(p.rgid)
	pkt.Key = p.key
	pkt.Write = p.write
	p.sent++
	p.refs++
	return pkt
}

// drop retires a packet of p that will never be answered.
func (r *runner) drop(st *shardState, p *pending, pkt *fabric.Packet) {
	r.net.Release(pkt)
	st.release(p)
}

// sendClientPick realizes the CliRS flow: the client's own C3 instance
// picks the replica (possibly delaying the send under rate control) and
// the request travels directly to the chosen server.
func (r *runner) sendClientPick(st *shardState, p *pending, candidates []int, primary bool) {
	server, delay, err := p.client.sel.Pick(candidates)
	if err != nil {
		return
	}
	pkt := r.newPacket(st, p)
	pkt.Dst = r.serverHostOf[server]
	pkt.Server = server
	if delay > 0 {
		st.eng.MustScheduleArg(delay, st.launchFn, pkt)
	} else {
		r.launchPick(st, pkt)
	}
	if primary {
		p.primary = server
		if r.cfg.Scheme == SchemeCliRSR95 {
			r.armRedundantTimer(st, p)
		}
	}
}

// launchPick puts a CliRS request on the wire once any rate-control delay
// has elapsed.
func (r *runner) launchPick(st *shardState, pkt *fabric.Packet) {
	p := st.lookup(pkt.Handle)
	if p.done {
		r.drop(st, p, pkt)
		return
	}
	if err := r.net.SendDirect(pkt, p.client.host); err != nil {
		r.drop(st, p, pkt)
	}
}

// armRedundantTimer schedules the CliRS-R95 duplicate once the request has
// been outstanding longer than the client's latency-percentile estimate.
// The armed timer holds a reference to p until it fires; a timer that
// fires after the first response does nothing else.
func (r *runner) armRedundantTimer(st *shardState, p *pending) {
	c := p.client
	if c.p95 == nil || c.p95.Observations() < 20 {
		return // no trustworthy estimate yet
	}
	threshold := sim.Time(c.p95.Value())
	if threshold <= 0 {
		return
	}
	p.refs++
	st.eng.MustScheduleArg(threshold, r.redundantFn, p)
}

// fireRedundant is the CliRS-R95 duplicate-timer handler: when the
// primary has not answered by the p95 threshold, re-issue the request to
// the remaining replicas.
func (r *runner) fireRedundant(p *pending) {
	st := r.parts[p.client.part]
	if !p.done {
		st.dup = st.dup[:0]
		for _, s := range p.replicas {
			if s != p.primary {
				st.dup = append(st.dup, s)
			}
		}
		if len(st.dup) > 0 {
			st.redundant++
			if st.timeline != nil {
				st.timeline.RecordTimeout(st.eng.Now())
			}
			r.sendClientPick(st, p, st.dup, false)
		}
	}
	st.release(p) // the fired timer's reference
}

// sendNetRS realizes the NetRS flow: the request heads for the network
// with its replica group ID and a client-provided DRS backup; the
// in-network RSNode picks the replica.
func (r *runner) sendNetRS(st *shardState, p *pending) {
	c := p.client
	st.rank = c.sel.Rank(st.rank[:0], p.replicas)
	backup := st.rank[0]
	pkt := r.newPacket(st, p)
	pkt.Dst = topo.InvalidNode
	pkt.Backup = r.serverHostOf[backup]
	pkt.BackupServer = backup
	if err := r.net.SendNetRSRequest(pkt, c.host); err != nil {
		r.drop(st, p, pkt)
	}
}

// serverHandler services requests at a replica server's host (that host's
// partition). The request packet waits in the server's queue
// (kv.Request.Arg) and turns into the response, answered by one stored
// completion handler.
func (r *runner) serverHandler(sid int) fabric.HostHandler {
	srv := r.servers[sid]
	host := r.serverHostOf[sid]
	done := func(arg any, _ sim.Time) { r.respond(sid, host, arg.(*fabric.Packet)) }
	return func(pkt *fabric.Packet) {
		ticket := srv.Submit(kv.Request{Done: done, Arg: pkt})
		if r.tickets != nil {
			r.tickets[pkt.ReqID] = queuedSvc{ticket, pkt}
		}
	}
}

// respond turns a request server sid has served into its response, then
// sends a write's cache invalidations.
func (r *runner) respond(sid int, host topo.NodeID, pkt *fabric.Packet) {
	reqID, key, write := pkt.ReqID, pkt.Key, pkt.Write
	if r.tickets != nil {
		delete(r.tickets, reqID)
	}
	pkt.Server = sid
	pkt.Status = r.servers[sid].Status()
	if err := r.net.SendResponse(pkt, host); err != nil {
		r.net.Release(pkt)
		return
	}
	if write {
		// One multicast to every enabled ToR cache, in topology order; with
		// none enabled it sends nothing. Host→switch routes always exist, so
		// an error would be a topology bug.
		_ = r.net.SendInvalidations(host, reqID, key, r.invalidationToRs)
	}
}

// clientHandler receives responses at a client host (that host's
// partition) and releases every packet it gets.
func (r *runner) clientHandler(c *client) fabric.HostHandler {
	st := r.parts[c.part]
	return func(pkt *fabric.Packet) {
		p := st.lookup(pkt.Handle)
		if p == nil {
			r.net.Release(pkt)
			return // stray: its record is gone
		}
		now := st.eng.Now()
		// Cache hits carry the -1 server sentinel: no replica served them,
		// so there is no feedback to fold into the selector.
		if pkt.Server >= 0 {
			c.sel.OnResponse(pkt.Server, now-pkt.SentAt, pkt.Status)
		}
		degraded := pkt.RID == wire.DegradedRID
		// The packet's reference to p passes to this handler.
		r.net.Release(pkt)
		if degraded {
			st.degraded++
		}
		// A duplicate that raced the primary loses: first response wins.
		if !p.done {
			r.complete(st, p, degraded, now)
		}
		st.release(p)
	}
}

// complete records p's first response. The caller holds a reference to
// p, so none released here is the last.
func (r *runner) complete(st *shardState, p *pending, degraded bool, now sim.Time) {
	c := p.client
	p.done = true
	// Cross-server cancellation: the race is decided, withdraw any
	// sibling still queued at its server. The winner was served, so its
	// ticket is already gone.
	if r.tickets != nil {
		for k := range p.sent {
			id := r.packetID(p, k)
			if q, ok := r.tickets[id]; ok && q.ticket.Cancel() {
				delete(r.tickets, id)
				st.cancelled++
				c.sel.OnAbandon(q.pkt.Server)
				// Never served: the packet returns to its pool here (the
				// server's partition is st, as cancellation runs at P = 1).
				r.net.Release(q.pkt)
				p.refs--
			}
		}
	}
	latency := now - p.created
	if c.p95 != nil {
		c.p95.Observe(float64(latency))
	}
	if p.logicalIdx >= r.warmup {
		st.rec.Record(latency)
		if r.trace != nil {
			r.trace[p.logicalIdx-r.warmup] = latency.Float64Ms()
		}
		if st.timeline != nil {
			st.timeline.Record(now, latency, degraded)
		}
	}
	st.completed++
	st.lastDone = now
	// A partition holding every completion stops at the last one, before
	// the rest of its window: the perpetual processes (server fluctuation)
	// stay armed but never run again, and no CliRS-R95 loser is served
	// after it. The barrier hook then ends the run.
	if st.completed == r.total {
		st.eng.Stop()
	}
}

// onCompletion fires every completion-count trigger that the run-wide
// count n has crossed since the last call, each once, at instant now. The
// barrier hook passes the count after a whole instant, which may cross
// several thresholds.
func (r *runner) onCompletion(n int, now sim.Time) {
	prev := r.counted
	r.counted = n
	crossed := func(at int) bool { return prev < at && at <= n }
	// The ILP plan deploys halfway through warmup: the paper notes a
	// temporary latency increase after an RSP deployment while new
	// RSNodes rebuild their view, so the second half of the warmup
	// absorbs that transient before measurement starts.
	if crossed(r.deployAt) {
		r.deployILPPlan()
	}
	// Measurement effectively starts with the first completion: the
	// monitors were constructed with windowStart == 0, so without a reset
	// the pipeline-fill idle time would dilute the first snapshot's rates
	// (the bias the normalization then overcorrects). Only the ILP deploy
	// and the epochs it arms read the monitors.
	if r.deployAt > 0 && crossed(1) {
		r.ctl.ResetMonitors(now)
	}
	if r.injector != nil {
		r.injector.OnCompletion(n, now)
	}
}

// recordError is the run's deterministic error sink: fault events that
// could not apply and solver fallbacks append here (occurrence order) and
// surface in Result.Errors instead of vanishing.
func (r *runner) recordError(msg string) {
	r.errs = append(r.errs, msg)
}

// errorf formats into the error sink.
func (r *runner) errorf(format string, args ...any) {
	r.recordError(fmt.Sprintf(format, args...))
}

// The runner implements faults.Actions: each method applies one fault
// effect against the live cluster, on the simulation timeline.

// CrashRSNode fails the targeted operator and routes the event through the
// controller's exception handling (§III-C scenario iii): the operator's
// traffic groups flip to Degraded Replica Selection without touching
// end-hosts.
func (r *runner) CrashRSNode(target string) (uint16, error) {
	op, err := r.resolveRSNode(target)
	if err != nil {
		return 0, err
	}
	if err := r.ctl.HandleOperatorFailure(op); err != nil {
		return 0, err
	}
	r.failedRSNode = op.ID()
	if plan, ok := r.ctl.CurrentPlan(); ok {
		r.plan = plan
	}
	return op.ID(), nil
}

// RecoverRSNode re-admits a crashed operator: the controller restores its
// pre-failure group assignments and the ToRs steer traffic through it
// again.
func (r *runner) RecoverRSNode(target string) (uint16, error) {
	op, err := r.resolveRSNode(target)
	if err != nil {
		return 0, err
	}
	if err := r.ctl.HandleOperatorRecovery(op); err != nil {
		return 0, err
	}
	if plan, ok := r.ctl.CurrentPlan(); ok {
		r.plan = plan
	}
	return op.ID(), nil
}

// resolveRSNode maps a fault-event target to an operator (schedule
// validation already guarantees sentinel/kind consistency). CliRS schemes
// have no control plane, so RSNode faults report an error there — the
// resilience experiment uses that as its unaffected control curve.
func (r *runner) resolveRSNode(target string) (*fabric.Operator, error) {
	if !r.netrs || r.ctl == nil || !r.hasPlan {
		return nil, fmt.Errorf("scheme %s has no NetRS control plane: %w", r.cfg.Scheme, ErrInvalidParam)
	}
	switch target {
	case faults.TargetBusiest:
		// Sorted iteration makes the victim deterministic: with map order,
		// ties in the selection counters would fail a different operator
		// on different runs of the same seed. Already-failed operators are
		// skipped so repeated crashes hit fresh victims.
		var busiest *fabric.Operator
		var most uint64
		for _, op := range r.net.OperatorsSorted() {
			if op.Failed() {
				continue
			}
			if s := op.Stats().Selections; s > most {
				busiest, most = op, s
			}
		}
		if busiest == nil {
			return nil, fmt.Errorf("no live operator with selections to crash: %w", ErrInvalidParam)
		}
		return busiest, nil
	case faults.TargetFailed:
		ids := r.ctl.FailedOperators()
		if len(ids) == 0 {
			return nil, fmt.Errorf("no failed operator to recover: %w", ErrInvalidParam)
		}
		return r.net.OperatorByID(ids[len(ids)-1])
	default:
		id, err := strconv.ParseUint(target, 10, 16)
		if err != nil {
			return nil, fmt.Errorf("rsnode target %q: %w", target, ErrInvalidParam)
		}
		return r.net.OperatorByID(uint16(id))
	}
}

// SetServerSlowdown scales a replica server's mean service time — the
// brownout fault.
func (r *runner) SetServerSlowdown(server int, mult float64) error {
	if server < 0 || server >= len(r.servers) {
		return fmt.Errorf("server %d of %d: %w", server, len(r.servers), ErrInvalidParam)
	}
	return r.servers[server].SetSlowdown(mult)
}

// CrashServer halts a replica server: its queue grows (and times out
// clients' patience) until RestartServer. In-flight service completes —
// the simulation has no client-side retry machinery, so a crash models an
// outage that stalls rather than drops requests.
func (r *runner) CrashServer(server int) error {
	if server < 0 || server >= len(r.servers) {
		return fmt.Errorf("server %d of %d: %w", server, len(r.servers), ErrInvalidParam)
	}
	r.servers[server].Pause()
	return nil
}

// RestartServer resumes a crashed server, draining its queue.
func (r *runner) RestartServer(server int) error {
	if server < 0 || server >= len(r.servers) {
		return fmt.Errorf("server %d of %d: %w", server, len(r.servers), ErrInvalidParam)
	}
	r.servers[server].Resume()
	return nil
}

// SetRackLinkDelay spikes (or with extra ≤ 0 clears) every fabric edge
// incident to the rack's ToR switch — a localized congestion event.
func (r *runner) SetRackLinkDelay(rack int, extra sim.Time) error {
	return setRackLinkDelay(r.ft, r.net, rack, extra)
}

// normalizeRates scales per-group tier rates in place so their total
// matches the offered load target (req/s), and returns the measured total
// before scaling. The scaling is symmetric: under-measured windows (close
// to the pipeline-fill time in scaled-down runs) are scaled up, and
// over-measured windows (a queue-drain burst compressed into a short
// window) are scaled down — either bias would otherwise feed the solver a
// wrong utilization. The paper's administrators know A anyway (they derive
// the hop budget E from it). A nonpositive target or an empty window
// leaves the rates untouched.
func normalizeRates(rates map[int][3]float64, target float64) float64 {
	// Group order is sorted throughout: measured is a float sum (addition
	// order changes the low bits, and the derived scale feeds the solver).
	groups := slices.Sorted(maps.Keys(rates))
	measured := 0.0
	for _, g := range groups {
		tiers := rates[g]
		measured += tiers[0] + tiers[1] + tiers[2]
	}
	if measured <= 0 || target <= 0 {
		return measured
	}
	scale := target / measured
	for _, g := range groups {
		tiers := rates[g]
		for k := range tiers {
			tiers[k] *= scale
		}
		rates[g] = tiers
	}
	return measured
}

// deployILPPlan solves the placement from the warmup window's monitor
// statistics and deploys it (the NetRS controller's initial RSP update,
// §II). The measured rates are normalized so their total matches the known
// offered load (see normalizeRates). It runs from the barrier hook, where
// the control engine reads the deploy instant.
func (r *runner) deployILPPlan() {
	rates := r.ctl.CollectTraffic()
	normalizeRates(rates, r.rate)
	plan, err := r.ctl.UpdateRSPWithTraffic(rates)
	if err != nil {
		// Keep the ToR plan; the run proceeds, which mirrors the
		// controller's behavior when no better RSP exists — but the
		// fallback is recorded rather than silent.
		r.errorf("ILP plan at %v: %v (keeping ToR plan)", r.eng.Now(), err)
		return
	}
	r.plan = plan
	setOperatorWeights(r.net, len(plan.RSNodes))
	// The periodic controller loop starts after the initial deployment;
	// with ControllerInterval unset the run is bit-identical to the
	// single-solve behavior.
	if r.cfg.ControllerInterval > 0 {
		r.every(r.cfg.ControllerInterval, r.runEpoch)
	}
}

// every runs fn one period from now and every period after, as a ShardSet
// global that lapses once the last completion is in. A global runs before
// every partition event at its instant.
func (r *runner) every(period sim.Time, fn func()) {
	at := r.eng.Now()
	var tick func()
	arm := func() {
		at += period
		if err := r.set.ScheduleGlobal(at, tick); err != nil {
			panic(fmt.Sprintf("cluster: schedule global: %v", err))
		}
	}
	tick = func() {
		if r.completedTotal() >= r.total {
			return
		}
		fn()
		arm()
	}
	arm()
}

// runEpoch is one controller epoch: snapshot the monitors, normalize the
// window's rates to the offered load, re-solve the placement, and deploy
// the delta. An empty window or a failed solve keeps the standing plan —
// the latter also records a Result.Errors entry.
func (r *runner) runEpoch() {
	now := r.eng.Now()
	rec := EpochRecord{AtMs: now.Float64Ms(), Kept: true}
	rates := r.ctl.CollectTraffic()
	if measured := normalizeRates(rates, r.rate); measured > 0 {
		solveStart := time.Now() //lint:wallclock epoch solve wall time is diagnostic-only, excluded from golden files
		plan, diff, err := r.ctl.UpdateRSPDelta(rates)
		rec.SolveWallMs = float64(time.Since(solveStart)) / 1e6 //lint:wallclock diagnostic-only, excluded from golden files
		if err != nil {
			r.errorf("controller epoch at %v: %v (keeping plan)", now, err)
		} else {
			prev := len(r.plan.RSNodes)
			r.plan = plan
			rec.Kept = false
			rec.MovedGroups = len(diff.MovedGroups)
			if len(plan.RSNodes) != prev {
				setOperatorWeights(r.net, len(plan.RSNodes))
			}
		}
	}
	rec.RSNodes = len(r.plan.RSNodes)
	rec.DegradedGroups = len(r.plan.Degraded)
	r.epochs = append(r.epochs, rec)
}

// sampleQueues samples the cross-server queue-length dispersion — the
// load-oscillation signal of §I.
func (r *runner) sampleQueues() {
	var w stats.Welford
	for _, srv := range r.servers {
		w.Observe(float64(srv.QueueSize()))
	}
	if w.Mean() > 0 {
		r.queueCV.Observe(w.CV())
	}
}
