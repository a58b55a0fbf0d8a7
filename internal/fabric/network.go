// Package fabric simulates the in-network half of NetRS (§II, §IV): the
// data-center network with per-link latency, the NetRS operators
// (programmable switch + network accelerator pairs) executing the ingress
// pipeline of Fig. 3, the NetRS selectors running replica selection on the
// accelerators, the ToR monitors that collect per-group traffic
// composition, and the NetRS controller that periodically installs Replica
// Selection Plans and handles exceptions through Degraded Replica
// Selection.
//
// Packets are simulated hop by hop: every switch on a path runs its
// match-action pipeline, links add a fixed latency (30 µs in the paper),
// and accelerator access adds its RTT plus queueing plus service time. A
// write's cache invalidations travel as one multicast along a route trie
// (multicast.go), one event per trie edge.
package fabric

import (
	"errors"
	"fmt"

	"netrs/internal/kv"
	"netrs/internal/sim"
	"netrs/internal/topo"
	"netrs/internal/wire"
)

// Errors returned by the fabric.
var (
	ErrInvalidParam = errors.New("fabric: invalid parameter")
	ErrNoHandler    = errors.New("fabric: destination host has no handler")
	ErrNoOperator   = errors.New("fabric: switch has no operator")
)

// Packet is the simulation's in-flight message. It mirrors the wire format
// of §IV-A — RID, magic field, RGID, source marker, piggybacked status —
// with simulation bookkeeping (IDs, timestamps, the current path) in place
// of opaque payload bytes.
type Packet struct {
	// ReqID ties a request to its response; unique per logical request
	// (redundant duplicates get their own IDs).
	ReqID uint64
	// Magic classifies the packet (wire.Classify).
	Magic wire.Magic
	// RID is the RSNode ID assigned by the ToR (requests) or copied from
	// the request by the server (responses). Zero means unset.
	RID uint16
	// RGID is the replica group of the requested key.
	RGID uint32
	// Src and Dst are end-hosts. Dst is topo.InvalidNode for NetRS
	// requests until a selector picks the replica server.
	Src, Dst topo.NodeID
	// Backup is the client-provided DRS fallback replica (§III-C): the
	// host and server ID of the client's own best guess.
	Backup       topo.NodeID
	BackupServer int
	// Server is the replica server ID once selected (and on responses).
	Server int
	// SM is the response's source marker, set by the server-side ToR.
	SM wire.SourceMarker
	// HasSM records whether SM has been stamped.
	HasSM bool
	// Status is the piggybacked server state on responses.
	Status kv.Status
	// Key is the accessed key, carried end to end so ToR caches can index
	// by it; Write marks update requests (cache schemes skip lookups on
	// writes and invalidate after the server commits).
	Key   uint64
	Write bool
	// SentAt is when the sending host put the packet on the wire
	// (SendNetRSRequest, SendDirect); the response keeps it, so the client
	// reads its round trip off the packet it gets back.
	SentAt sim.Time
	// SelectedAt is when the RSNode released the request toward its
	// selected server; the response keeps it, and its clone then yields the
	// RSNode-observed response time (the RV timestamp of §IV-A). Zero until
	// an RSNode selects.
	SelectedAt sim.Time
	// Handle is the sender's opaque reference to its in-flight record; the
	// response keeps it, so the sender resolves the record by index. ReqID
	// cannot serve: it seeds the ECMP flow hash.
	Handle uint64

	path []topo.NodeID
	idx  int

	// hold stashes a selector's rate-control delay between the
	// accelerator's return trip and the operator's send, so the hot path
	// needs no capturing closure.
	hold sim.Time
	// pooled marks packets handed out by NewPacketIn and not yet back on
	// a free list (Release, or a fabric drop).
	pooled bool
	// part is the partition whose free list handed the packet out, where
	// Release returns it while it has no route yet.
	part int32
}

// Config parameterizes the simulated fabric with the paper's measurements
// (§V-A, taken from IncBricks).
type Config struct {
	// LinkLatency is the one-hop network latency (30 µs).
	LinkLatency sim.Time `json:"linkLatencyNs"`
	// AccelRTT is the switch↔accelerator round trip (2.5 µs).
	AccelRTT sim.Time `json:"accelRttNs"`
	// AccelService is the accelerator's per-selection service time (5 µs).
	AccelService sim.Time `json:"accelServiceNs"`
	// AccelCores is the accelerator core count (1 for the paper's
	// low-end accelerators).
	AccelCores int `json:"accelCores"`
}

// NewDefaultConfig returns the paper's network-device parameters.
func NewDefaultConfig() Config {
	return Config{
		LinkLatency:  30 * sim.Microsecond,
		AccelRTT:     sim.Time(2.5 * float64(sim.Microsecond)),
		AccelService: 5 * sim.Microsecond,
		AccelCores:   1,
	}
}

func (c Config) validate() error {
	if c.LinkLatency <= 0 || c.AccelRTT < 0 || c.AccelService <= 0 || c.AccelCores < 1 {
		return fmt.Errorf("config %+v: %w", c, ErrInvalidParam)
	}
	return nil
}

// HostHandler receives packets delivered to an end-host. The handler owns
// the packet it is given: it either sends it on (a server turns a request
// into its response with SendResponse) or returns it with Release.
type HostHandler func(*Packet)

// partCounters are the per-partition forwarding counters. Keeping them
// partition-local lets sharded windows count without atomics; Stats sums
// them.
type partCounters struct {
	forwards  uint64
	delivered uint64
	dropped   uint64
	// packets counts the packets the partition's pool allocated.
	packets uint64
}

// Network simulates the data-center fabric: topology-aware hop-by-hop
// forwarding with NetRS operators on every switch.
//
// On a single partition every node lives in partition 0 and eng drives
// everything. Over the topology's pod partitions each node schedules on
// its home partition's engine, and hops whose endpoints live in different
// partitions — exclusively aggregation↔core links — travel through the
// shard set's exchange instead of a direct Schedule call. eng is then the
// control partition's engine, which the controller's barrier-time reads
// observe.
type Network struct {
	eng  *sim.Engine
	topo *topo.Topology
	cfg  Config

	// set is the shard coordinator and engs[p] partition p's engine;
	// partOf maps nodes to partitions (nil on a single partition, where
	// everything is partition 0).
	set    *sim.ShardSet
	engs   []*sim.Engine
	partOf []int

	// operators and hosts are dense tables indexed by NodeID (nil where a
	// node has no operator or handler). opsSorted is in topology switch
	// order, the deterministic view; RSNode ID id is opsSorted[id-1].
	operators []*Operator
	opsSorted []*Operator
	hosts     []HostHandler

	// arriveFn is the one hop-completion handler shared by every in-flight
	// packet (closure-free per-hop scheduling), and reachFn the one for
	// invalidation fan-out trie edges (multicast.go). linkLanes[p] is
	// partition p's LinkLatency lane, which carries every same-partition
	// hop that no fault slows.
	arriveFn  sim.ArgHandler
	reachFn   sim.ArgHandler
	linkLanes []*sim.Lane
	// pktFree recycles pooled packets (NewPacketIn) once released or
	// dropped, and segFree fan-out trie segments once their last node runs,
	// one free list per partition so recycling stays worker-local.
	// builds[p] is partition p's trie-building scratch.
	pktFree [][]*Packet
	segFree [][]*mcastSeg
	builds  []mcastBuild

	// linkExtra holds fault-injected per-edge latency additions, keyed by
	// the normalized (low, high) endpoint pair. Nil until the first spike,
	// so the hot path pays only a length check when no fault is active.
	linkExtra map[edgeKey]sim.Time

	counters []partCounters
}

// NewNetwork builds a fabric over the topology with one NetRS operator per
// switch, as §III-B requires ("every programmable switch must have a
// network accelerator"). The set has either a single partition, which
// drives every node, or one per topology partition (topo.PodPartitions):
// then each node schedules on its home partition's engine
// (topo.PartitionOf) and cross-partition hops travel through the set's
// exchange. The lookahead must not exceed the link latency — the latency
// of the only cross-partition hops. selectorFactory builds the
// replica-selection state for each operator's accelerator on the engine of
// the partition the operator is pinned to, so clock-reading selectors
// observe their own partition's time.
func NewNetwork(set *sim.ShardSet, t *topo.Topology, cfg Config, selectorFactory func(op uint16, eng *sim.Engine) (Selector, error)) (*Network, error) {
	if set == nil || t == nil || selectorFactory == nil {
		return nil, fmt.Errorf("nil shard set, topology or factory: %w", ErrInvalidParam)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if parts := set.Partitions(); parts != 1 && parts != t.PodPartitions() {
		return nil, fmt.Errorf("%d shard partitions for %d topology partitions: %w",
			parts, t.PodPartitions(), ErrInvalidParam)
	}
	if set.Lookahead() > cfg.LinkLatency {
		return nil, fmt.Errorf("lookahead %v exceeds link latency %v: %w",
			set.Lookahead(), cfg.LinkLatency, ErrInvalidParam)
	}
	engs := make([]*sim.Engine, set.Partitions())
	for p := range engs {
		engs[p] = set.Engine(p)
	}
	n := &Network{
		eng:       engs[0],
		topo:      t,
		cfg:       cfg,
		set:       set,
		engs:      engs,
		pktFree:   make([][]*Packet, len(engs)),
		segFree:   make([][]*mcastSeg, len(engs)),
		builds:    make([]mcastBuild, len(engs)),
		counters:  make([]partCounters, len(engs)),
		operators: make([]*Operator, t.Size()),
		hosts:     make([]HostHandler, t.Size()),
		linkLanes: make([]*sim.Lane, len(engs)),
	}
	for p, eng := range engs {
		n.linkLanes[p] = eng.Lane(cfg.LinkLatency)
	}
	if len(engs) > 1 {
		n.eng = engs[t.ControlPartition()]
		n.partOf = make([]int, t.Size())
		for id := range n.partOf {
			n.partOf[id] = t.PartitionOf(topo.NodeID(id))
		}
	}
	n.arriveFn = func(arg any) {
		p := arg.(*Packet)
		p.idx++
		n.arrive(p)
	}
	n.reachFn = func(arg any) { n.reach(arg.(*mcastNode)) }
	for i, sw := range t.Switches() {
		id := uint16(i + 1)
		eng := n.EngineOf(sw)
		sel, err := selectorFactory(id, eng)
		if err != nil {
			return nil, fmt.Errorf("selector for operator %d: %w", id, err)
		}
		op, err := newOperator(id, sw, n, eng, sel)
		if err != nil {
			return nil, err
		}
		n.operators[sw] = op
		n.opsSorted = append(n.opsSorted, op)
	}
	return n, nil
}

// PartitionOf returns a node's home partition (0 on a single partition).
func (n *Network) PartitionOf(id topo.NodeID) int {
	if n.partOf == nil {
		return 0
	}
	return n.partOf[id]
}

// EngineOf returns the engine driving a node's home partition.
func (n *Network) EngineOf(id topo.NodeID) *sim.Engine {
	return n.engs[n.PartitionOf(id)]
}

// Engine exposes the driving engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Topology exposes the underlying topology.
func (n *Network) Topology() *topo.Topology { return n.topo }

// Operator returns the operator co-located with a switch.
func (n *Network) Operator(sw topo.NodeID) (*Operator, error) {
	if sw < 0 || int(sw) >= len(n.operators) || n.operators[sw] == nil {
		return nil, fmt.Errorf("switch %d: %w", sw, ErrNoOperator)
	}
	return n.operators[sw], nil
}

// OperatorByID returns the operator with the given RSNode ID.
func (n *Network) OperatorByID(id uint16) (*Operator, error) {
	if id == 0 || int(id) > len(n.opsSorted) {
		return nil, fmt.Errorf("operator %d: %w", id, ErrNoOperator)
	}
	return n.opsSorted[id-1], nil
}

// OperatorsSorted returns the operators in topology switch order — the
// stable iteration view for controllers, sweeps, and statistics.
func (n *Network) OperatorsSorted() []*Operator { return n.opsSorted }

// AttachHost registers the packet handler of an end-host.
func (n *Network) AttachHost(host topo.NodeID, h HostHandler) error {
	node, err := n.topo.Node(host)
	if err != nil {
		return err
	}
	if node.Kind != topo.KindHost {
		return fmt.Errorf("node %d is a %v: %w", host, node.Kind, ErrInvalidParam)
	}
	if h == nil {
		return fmt.Errorf("nil handler: %w", ErrInvalidParam)
	}
	n.hosts[host] = h
	return nil
}

// Launch routes a packet from the node `from` to the node `to` and sends
// its first hop. Hosts inject with it (`to` is a host for direct flows, a
// switch for RSNode-bound flows); an operator re-routes a packet with it
// from its own switch, which forwards without re-running its pipeline.
// The first hop leaves immediately; each link costs LinkLatency. ECMP
// hashes the request ID, so all of a request's flows share one hash. The
// packet's path buffer is reused, so a recycled packet routes without
// allocating.
func (n *Network) Launch(p *Packet, from, to topo.NodeID) error {
	path, err := n.topo.RouteInto(p.path[:0], from, to, sim.Mix64(p.ReqID))
	if err != nil {
		return fmt.Errorf("launch: %w", err)
	}
	p.path = path
	p.idx = 0
	n.hop(p)
	return nil
}

// hop moves the packet one link toward path[idx+1], or processes it where
// it is once its path is done.
func (n *Network) hop(p *Packet) {
	if p.idx >= len(p.path)-1 {
		n.arrive(p)
		return
	}
	n.link(p.path[p.idx], p.path[p.idx+1], n.arriveFn, p)
}

// link sends fn(arg) across the link from a to b and counts one forward.
// A link whose endpoints live in different partitions goes through the
// exchange; the link latency covers the lookahead by NewNetwork's check,
// and fault-injected extras only widen the margin. A same-partition link
// rides the partition's LinkLatency lane unless a fault extra lengthens it.
func (n *Network) link(a, b topo.NodeID, fn sim.ArgHandler, arg any) {
	src := n.PartitionOf(a)
	n.counters[src].forwards++
	delay := n.cfg.LinkLatency
	if len(n.linkExtra) > 0 {
		if extra, ok := n.linkExtra[edgeKeyOf(a, b)]; ok {
			delay += extra
		}
	}
	if dst := n.PartitionOf(b); dst != src {
		n.set.MustSend(src, dst, n.engs[src].Now()+delay, fn, arg)
		return
	}
	if delay == n.cfg.LinkLatency {
		n.linkLanes[src].ScheduleArg(fn, arg)
		return
	}
	n.engs[src].MustScheduleArg(delay, fn, arg)
}

// edgeKey identifies an undirected fabric edge by its normalized endpoints.
type edgeKey struct {
	lo, hi topo.NodeID
}

// edgeKeyOf normalizes an endpoint pair.
func edgeKeyOf(a, b topo.NodeID) edgeKey {
	if a > b {
		a, b = b, a
	}
	return edgeKey{lo: a, hi: b}
}

// SetLinkExtra installs (or, with extra ≤ 0, clears) a fault-injected
// latency addition on the edge between a and b. Both hop directions pay the
// extra. The edge must exist in the topology.
func (n *Network) SetLinkExtra(a, b topo.NodeID, extra sim.Time) error {
	if !n.topo.Linked(a, b) {
		return fmt.Errorf("no link between %d and %d: %w", a, b, ErrInvalidParam)
	}
	key := edgeKeyOf(a, b)
	if extra <= 0 {
		delete(n.linkExtra, key)
		return nil
	}
	if n.linkExtra == nil {
		n.linkExtra = make(map[edgeKey]sim.Time)
	}
	n.linkExtra[key] = extra
	return nil
}

// LinkExtra returns the active latency addition on the edge between a and
// b, zero when none.
func (n *Network) LinkExtra(a, b topo.NodeID) sim.Time {
	return n.linkExtra[edgeKeyOf(a, b)]
}

// arrive processes the packet at its current node: a switch's operator
// pipeline, or a host's handler. Paths hold topology nodes only, so the
// dense tables need no bounds check here.
func (n *Network) arrive(p *Packet) {
	node := p.path[p.idx]
	if op := n.operators[node]; op != nil {
		op.ingress(p)
		return
	}
	h := n.hosts[node]
	if h == nil {
		n.drop(p)
		return
	}
	// Responses leaving the network pass the ToR's egress pipeline, where
	// the NetRS monitor counts them (§IV-D).
	if wire.Classify(p.Magic) == wire.KindMonitor {
		if meta, err := n.topo.Node(node); err == nil {
			if tor, err := n.topo.ToROfRack(meta.Rack); err == nil {
				if op := n.operators[tor]; op != nil && op.monitor != nil {
					op.monitor.count(p, node)
				}
			}
		}
	}
	n.counters[n.PartitionOf(node)].delivered++
	h(p)
}

// NewPacketIn returns a zeroed packet, recycled from partition part's free
// list when one is available. A packet stays with whoever holds it — the
// fabric while it travels, then the host handler it is delivered to —
// until that holder returns it with Release; the fabric releases the
// packets it drops. Packets built with a plain &Packet{} literal are never
// recycled. It must be called from an event executing in partition part (0
// on a single engine), so each free list stays worker-local. A fresh
// packet's path buffer has room for 8 nodes: the longest fat-tree route
// (host, ToR, aggregation, core, aggregation, ToR, host) has 7, so routing
// never regrows it.
func (n *Network) NewPacketIn(part int) *Packet {
	free := n.pktFree[part]
	if k := len(free); k > 0 {
		p := free[k-1]
		n.pktFree[part] = free[:k-1]
		// Keep the path buffer: route computation reuses its capacity.
		path := p.path[:0]
		*p = Packet{pooled: true, part: int32(part), path: path}
		return p
	}
	n.counters[part].packets++
	return &Packet{pooled: true, part: int32(part), path: make([]topo.NodeID, 0, 8)}
}

// Release returns a pool-owned packet to the free list of the partition
// the packet currently sits in (where the releasing event executes): the
// node it has reached on its route, or, before Launch routes it, the
// partition that handed it out. A no-op for literal-built packets. The
// caller must not touch the packet afterwards.
func (n *Network) Release(p *Packet) {
	if !p.pooled {
		return
	}
	p.pooled = false
	part := n.packetPartition(p)
	n.pktFree[part] = append(n.pktFree[part], p)
}

// packetPartition returns the partition of the node a packet currently
// sits at: where the event handling it executes. An unrouted packet sits
// with the host that took it from its pool.
func (n *Network) packetPartition(p *Packet) int {
	if p.idx >= len(p.path) {
		return int(p.part)
	}
	return n.PartitionOf(p.path[p.idx])
}

// drop counts a packet as dropped and recycles it.
func (n *Network) drop(p *Packet) {
	n.counters[n.packetPartition(p)].dropped++
	n.Release(p)
}

// PacketsInUse returns how many packets the pools have handed out and not
// got back: the packets allocated minus those on the free lists, summed
// over partitions. Read it between runs or at a barrier.
func (n *Network) PacketsInUse() int {
	inUse := 0
	for p, c := range n.counters {
		inUse += int(c.packets) - len(n.pktFree[p])
	}
	return inUse
}

// SendNetRSRequest injects a fresh NetRS request at a client host: the
// packet carries the Mreq magic and heads for the client's ToR switch,
// which stamps the RSNode ID per its rules (§IV-B).
func (n *Network) SendNetRSRequest(p *Packet, from topo.NodeID) error {
	node, err := n.topo.Node(from)
	if err != nil {
		return err
	}
	if node.Kind != topo.KindHost {
		return fmt.Errorf("request from non-host %d: %w", from, ErrInvalidParam)
	}
	p.Magic = wire.MagicRequest
	p.Src = from
	p.SentAt = n.EngineOf(from).Now()
	tor, err := n.topo.ToROfRack(node.Rack)
	if err != nil {
		return err
	}
	return n.Launch(p, from, tor)
}

// SendDirect injects a packet bound straight for p.Dst — the CliRS flow
// (non-NetRS traffic the switches simply forward).
func (n *Network) SendDirect(p *Packet, from topo.NodeID) error {
	p.Src = from
	p.SentAt = n.EngineOf(from).Now()
	return n.Launch(p, from, p.Dst)
}

// SendResponse turns the request p, delivered to the server host from,
// into its response and injects it: the packet heads back to its source,
// a non-zero magic is inverted (§IV-C), and the source marker is cleared
// for the server's ToR to stamp (§IV-B). The response keeps the request's
// ReqID (so it shares the request's ECMP hash), Handle, RID, RGID, Key,
// Write, SelectedAt and SentAt; the server sets Server and Status first.
// Responses to RSNode-processed requests are routed through their RSNode
// first (§I: one request and its response must flow through the same
// RSNode); degraded and non-NetRS responses go straight to the client.
func (n *Network) SendResponse(p *Packet, from topo.NodeID) error {
	p.Src, p.Dst = from, p.Src
	if p.Magic != 0 {
		p.Magic = wire.InverseTransform(p.Magic)
	}
	p.SM, p.HasSM = wire.SourceMarker{}, false
	if p.RID != 0 && p.RID != wire.DegradedRID {
		op, err := n.OperatorByID(p.RID)
		if err == nil {
			return n.Launch(p, from, op.sw)
		}
	}
	return n.Launch(p, from, p.Dst)
}

// Stats reports forwarding counters, summed across partitions. forwards
// counts link transmissions: a packet counts once per link it crosses, and
// an invalidation fan-out once per trie edge, however many targets lie
// beyond it. delivered counts packets handed to a host handler plus
// invalidations applied at their target ToRs; dropped counts packets the
// fabric discarded.
func (n *Network) Stats() (forwards, delivered, dropped uint64) {
	for _, c := range n.counters {
		forwards += c.forwards
		delivered += c.delivered
		dropped += c.dropped
	}
	return forwards, delivered, dropped
}
