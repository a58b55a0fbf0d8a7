package fabric

import (
	"fmt"
	"slices"

	"netrs/internal/cache"
	"netrs/internal/selection"
	"netrs/internal/sim"
	"netrs/internal/topo"
	"netrs/internal/wire"
)

// CacheMode selects how a ToR operator's hot-key cache participates in
// the request pipeline.
type CacheMode int

const (
	// CacheModeNone: no cache (the default; every non-cache scheme).
	CacheModeNone CacheMode = iota
	// CacheModeStandalone is the NetCache scheme: the client's ToR
	// answers hits itself and sends misses to the group's fixed primary
	// replica — no replica selection at all.
	CacheModeStandalone
	// CacheModeSelector is the NetRS+Cache scheme: the RSNode answers
	// hits locally and runs its selector on misses.
	CacheModeSelector
)

// Selector is the replica-selection state an accelerator runs; it is the
// same contract client RSNodes use, so any algorithm plugs into either
// location (§IV-C: "the NetRS selector could use an arbitrary replica
// selection algorithm").
type Selector = selection.Selector

// GroupDB resolves a replica group ID to candidate server IDs — the NetRS
// selector's "local database of replica groups" (§IV-A).
type GroupDB func(rgid uint32) ([]int, error)

// ServerLocator maps a server ID to its end-host.
type ServerLocator func(server int) (topo.NodeID, error)

// Rules is a ToR switch's NetRS rule state (§IV-B): the source-host →
// traffic-group match table and each group's RSNode assignment or DRS
// flag. Like a switch's register arrays, both are dense tables: a ToR binds
// its own rack's hosts, whose IDs are consecutive, so slotOfHost is
// indexed by the host's offset from base and holds the group's slot + 1
// (0: unbound), and groups holds one rule per slot. A rack has a handful
// of groups, so the control plane finds a group's slot by scanning.
type Rules struct {
	base       topo.NodeID
	slotOfHost []int32
	groups     []groupRule
}

// groupRule is one traffic group's rule: its RSNode ID (0: none
// assigned) or its DRS flag.
type groupRule struct {
	id  int
	rid uint16
	drs bool
}

// NewRules returns an empty rule table.
func NewRules() *Rules { return &Rules{} }

// slot returns the group's slot, adding one for a group not seen before.
func (r *Rules) slot(group int) int {
	for i := range r.groups {
		if r.groups[i].id == group {
			return i
		}
	}
	r.groups = append(r.groups, groupRule{id: group})
	return len(r.groups) - 1
}

// BindHost assigns a source host to a traffic group.
func (r *Rules) BindHost(host topo.NodeID, group int) {
	switch {
	case len(r.slotOfHost) == 0:
		r.base = host
	case host < r.base: // the table starts at the lowest bound host
		r.slotOfHost = slices.Insert(r.slotOfHost, 0, make([]int32, r.base-host)...)
		r.base = host
	}
	if off := int(host - r.base); off >= len(r.slotOfHost) {
		r.slotOfHost = append(r.slotOfHost, make([]int32, off+1-len(r.slotOfHost))...)
	}
	r.slotOfHost[host-r.base] = int32(r.slot(group)) + 1
}

// SetRSNode routes a group's requests to the given RSNode ID and clears
// any DRS flag.
func (r *Rules) SetRSNode(group int, rid uint16) {
	g := &r.groups[r.slot(group)]
	g.rid, g.drs = rid, false
}

// SetDRS enables Degraded Replica Selection for a group.
func (r *Rules) SetDRS(group int) { r.groups[r.slot(group)].drs = true }

// hostSlot resolves a source host to its group's slot.
func (r *Rules) hostSlot(host topo.NodeID) (int, bool) {
	off := int(host - r.base)
	if off < 0 || off >= len(r.slotOfHost) || r.slotOfHost[off] == 0 {
		return 0, false
	}
	return int(r.slotOfHost[off]) - 1, true
}

// Lookup resolves a source host to (group, rid, drs, known).
func (r *Rules) Lookup(host topo.NodeID) (group int, rid uint16, drs, known bool) {
	slot, ok := r.hostSlot(host)
	if !ok {
		return 0, 0, false, false
	}
	g := r.groups[slot]
	if g.drs {
		return g.id, wire.DegradedRID, true, true
	}
	if g.rid == 0 {
		return g.id, 0, false, false
	}
	return g.id, g.rid, false, true
}

// OperatorStats counts a NetRS operator's activity.
type OperatorStats struct {
	// Selections is the number of requests whose replica this operator
	// chose.
	Selections uint64
	// ResponseClones is the number of response clones folded into local
	// state.
	ResponseClones uint64
	// Degraded counts requests this operator routed via DRS.
	Degraded uint64
	// Stamped counts requests whose RID this ToR set.
	Stamped uint64
}

// Operator is one NetRS operator: a programmable switch plus its attached
// network accelerator (§II). All switches carry NetRS rules; ToR switches
// additionally run the NetRS monitor and the RID-stamping rules.
type Operator struct {
	id   uint16
	sw   topo.NodeID
	tier int
	// pod and rack locate the switch (rack is -1 above the ToR tier).
	pod, rack int
	net       *Network
	// eng drives this operator's events: the switch's home-partition
	// engine.
	eng *sim.Engine

	rules   *Rules
	accel   *Accelerator
	monitor *Monitor

	// cache is the ToR-resident hot-key cache (nil unless a cache scheme
	// enabled it); cacheMode selects its pipeline role.
	cache     *cache.Cache
	cacheMode CacheMode

	groupDB    GroupDB
	serverHost ServerLocator

	failed bool
	stats  OperatorStats

	// sendSelectedFn is the stored handler for rate-control-delayed sends,
	// so a held request schedules without allocating a closure.
	sendSelectedFn sim.ArgHandler
}

func newOperator(id uint16, sw topo.NodeID, net *Network, eng *sim.Engine, sel Selector) (*Operator, error) {
	if id == 0 || id == wire.DegradedRID {
		return nil, fmt.Errorf("operator id %d: %w", id, ErrInvalidParam)
	}
	node, err := net.topo.Node(sw)
	if err != nil {
		return nil, err
	}
	if node.Kind != topo.KindSwitch {
		return nil, fmt.Errorf("operator on non-switch node %d: %w", sw, ErrInvalidParam)
	}
	o := &Operator{
		id:    id,
		sw:    sw,
		tier:  node.Tier,
		pod:   node.Pod,
		rack:  node.Rack,
		net:   net,
		eng:   eng,
		rules: NewRules(),
	}
	o.sendSelectedFn = func(arg any) { o.sendSelected(arg.(*Packet)) }
	o.accel = newAccelerator(eng, net.cfg, sel, o)
	if node.Tier == topo.TierToR {
		o.monitor = newMonitor(o)
	}
	return o, nil
}

// ID returns the RSNode ID.
func (o *Operator) ID() uint16 { return o.id }

// Switch returns the operator's switch node.
func (o *Operator) Switch() topo.NodeID { return o.sw }

// Tier returns the switch tier.
func (o *Operator) Tier() int { return o.tier }

// Rules returns the operator's rule table (installed by the controller).
func (o *Operator) Rules() *Rules { return o.rules }

// Monitor returns the ToR monitor, or nil for non-ToR operators.
func (o *Operator) Monitor() *Monitor { return o.monitor }

// Accelerator returns the attached accelerator.
func (o *Operator) Accelerator() *Accelerator { return o.accel }

// Stats returns the operator's counters.
func (o *Operator) Stats() OperatorStats { return o.stats }

// SetDatabases installs the replica-group database and server locator the
// NetRS selector consults.
func (o *Operator) SetDatabases(db GroupDB, loc ServerLocator) {
	o.groupDB = db
	o.serverHost = loc
}

// EnableCache attaches a hot-key cache to this (ToR) operator in the
// given mode. Non-ToR operators reject it: the cache tier lives where
// requests enter and leave the network.
func (o *Operator) EnableCache(c *cache.Cache, mode CacheMode) error {
	if c == nil || mode == CacheModeNone {
		return fmt.Errorf("nil cache or mode none: %w", ErrInvalidParam)
	}
	if o.tier != topo.TierToR {
		return fmt.Errorf("cache on tier-%d operator %d: %w", o.tier, o.id, ErrInvalidParam)
	}
	o.cache = c
	o.cacheMode = mode
	return nil
}

// Cache returns the attached hot-key cache, nil when none.
func (o *Operator) Cache() *cache.Cache { return o.cache }

// Fail marks the operator as failed: it stops selecting and degrades any
// request that reaches it (§III-C scenario iii).
func (o *Operator) Fail() { o.failed = true }

// Recover clears the failure flag.
func (o *Operator) Recover() { o.failed = false }

// Failed reports the failure state.
func (o *Operator) Failed() bool { return o.failed }

// ingress is the switch's NetRS processing pipeline (Fig. 3). The packet
// sits at this switch (p.path[p.idx] == o.sw).
func (o *Operator) ingress(p *Packet) {
	switch wire.Classify(p.Magic) {
	case wire.KindRequest:
		o.ingressRequest(p)
	case wire.KindResponse:
		o.ingressResponse(p)
	case wire.KindMonitor, wire.KindDegradedRequest:
		o.stampSourceMarker(p)
		o.forwardOrDeliver(p)
	default:
		// Non-NetRS packets take the regular pipeline: plain forwarding.
		o.forwardOrDeliver(p)
	}
}

// ingressRequest handles packets with the Mreq magic.
func (o *Operator) ingressRequest(p *Packet) {
	// ToR switches stamp the RSNode ID on requests entering the network
	// from their own rack (§IV-B). Under NetCache the client's ToR owns
	// the whole request instead: cache hits turn around here, misses go
	// to the group's fixed primary replica.
	if o.tier == topo.TierToR && p.RID == 0 && o.inMyRack(p.Src) {
		if o.cacheMode == CacheModeStandalone {
			o.serveNetCache(p)
			return
		}
		if !o.stampRID(p) {
			return // degraded and relaunched, or dropped
		}
	}
	if p.RID == o.id {
		if o.failed {
			o.degrade(p)
			return
		}
		// NetRS+Cache: the RSNode answers hits out of its cache and only
		// runs the selector on misses (reads only — writes must reach a
		// replica to commit).
		if o.cacheMode == CacheModeSelector && !p.Write && o.cache.Lookup(p.Key) {
			o.respondFromCache(p)
			return
		}
		o.accel.submitRequest(p)
		return
	}
	// Not ours: forward toward the RSNode.
	if p.idx >= len(p.path)-1 {
		target, err := o.net.OperatorByID(p.RID)
		if err != nil {
			o.degrade(p) // unknown RSNode: fall back to the client's choice
			return
		}
		if err := o.net.Launch(p, o.sw, target.sw); err != nil {
			o.net.drop(p)
		}
		return
	}
	o.net.hop(p)
}

// stampRID applies the ToR's traffic-group rules to a fresh request. It
// reports whether normal RSNode routing should continue.
func (o *Operator) stampRID(p *Packet) bool {
	_, rid, drs, known := o.rules.Lookup(p.Src)
	if !known || drs {
		// Unknown hosts degrade gracefully: route to the client's backup,
		// exactly the DRS path (§III-C).
		o.degrade(p)
		return false
	}
	p.RID = rid
	o.stats.Stamped++
	return true
}

// degrade routes a request straight to the client-provided backup replica
// under the Degraded Replica Selection rules: illegal RID and the
// f(Mmon) magic so the server's response stays monitor-visible (§IV-B).
func (o *Operator) degrade(p *Packet) {
	o.stats.Degraded++
	p.RID = wire.DegradedRID
	p.Magic = wire.Transform(wire.MagicMonitor)
	p.Dst = p.Backup
	p.Server = p.BackupServer
	if err := o.net.Launch(p, o.sw, p.Dst); err != nil {
		o.net.drop(p)
	}
}

// serveNetCache is the NetCache pipeline at the client's ToR: a read hit
// is answered from the switch, anything else goes to the replica group's
// fixed primary (RID stays zero, so the response returns directly).
func (o *Operator) serveNetCache(p *Packet) {
	if !p.Write && o.cache.Lookup(p.Key) {
		o.respondFromCache(p)
		return
	}
	replicas, err := o.groupDB(p.RGID)
	if err != nil || len(replicas) == 0 {
		o.degrade(p)
		return
	}
	primary := replicas[0]
	host, err := o.serverHost(primary)
	if err != nil {
		o.degrade(p)
		return
	}
	p.Server = primary
	p.Dst = host
	p.Magic = wire.Transform(wire.MagicResponse)
	if err := o.net.Launch(p, o.sw, host); err != nil {
		o.net.drop(p)
	}
}

// respondFromCache flips a request into its response in the switch
// pipeline: a cache hit never leaves the rack. Server is the -1 sentinel
// so the client knows no replica served it (selector state stays clean).
func (o *Operator) respondFromCache(p *Packet) {
	p.Magic = wire.MagicResponse
	p.RID = 0
	p.Server = -1
	p.Dst = p.Src
	p.Src = o.sw
	if err := o.net.Launch(p, o.sw, p.Dst); err != nil {
		o.net.drop(p)
	}
}

// ingressResponse handles packets with the Mresp magic.
func (o *Operator) ingressResponse(p *Packet) {
	o.stampSourceMarker(p)
	// Cache admission: a read response passing the destination client's
	// ToR offers its key to the cache (the frequency gate decides).
	if o.cache != nil && !p.Write && o.inMyRack(p.Dst) {
		o.cache.Admit(p.Key)
	}
	if p.RID == o.id {
		// The switch's clone-to-accelerator action folds the response into
		// selector state; the accelerator consumes it synchronously and
		// read-only, so the simulation passes the original instead of
		// materializing a copy. The original then continues with the Mmon
		// magic so monitors recognize it and no further RSNode processes
		// it (§IV-B).
		if !o.failed {
			o.accel.submitResponseClone(p)
		}
		p.Magic = wire.MagicMonitor
		if p.idx >= len(p.path)-1 {
			if err := o.net.Launch(p, o.sw, p.Dst); err != nil {
				o.net.drop(p)
			}
			return
		}
		o.net.hop(p)
		return
	}
	if p.idx >= len(p.path)-1 {
		// The response must reach its RSNode before the client.
		target, err := o.net.OperatorByID(p.RID)
		if err != nil {
			o.net.drop(p)
			return
		}
		if err := o.net.Launch(p, o.sw, target.sw); err != nil {
			o.net.drop(p)
		}
		return
	}
	o.net.hop(p)
}

// stampSourceMarker sets the SM segment on responses entering the network
// at this ToR (§IV-B).
func (o *Operator) stampSourceMarker(p *Packet) {
	if o.tier != topo.TierToR || p.HasSM || !o.inMyRack(p.Src) {
		return
	}
	p.SM = wire.SourceMarker{Pod: uint16(o.pod), Rack: uint16(o.rack)}
	p.HasSM = true
}

// forwardOrDeliver continues a packet along its path.
func (o *Operator) forwardOrDeliver(p *Packet) {
	if p.idx >= len(p.path)-1 {
		// A non-request packet whose path ends at a switch has nowhere to
		// go; this indicates a routing bug upstream.
		o.net.drop(p)
		return
	}
	o.net.hop(p)
}

// inMyRack reports whether a host hangs off this (ToR) switch.
func (o *Operator) inMyRack(host topo.NodeID) bool {
	node, err := o.net.topo.Node(host)
	if err != nil {
		return false
	}
	return node.Rack == o.rack && node.Kind == topo.KindHost
}

// onSelected is the accelerator's callback once a replica has been chosen:
// rebuild the request (selected magic, destination server) and send it on
// (§IV-C).
func (o *Operator) onSelected(p *Packet, server int, delay sim.Time) {
	host, err := o.serverHost(server)
	if err != nil {
		o.net.drop(p)
		return
	}
	o.stats.Selections++
	p.Server = server
	p.Dst = host
	p.Magic = wire.Transform(wire.MagicResponse)
	if delay > 0 {
		o.eng.MustScheduleArg(delay, o.sendSelectedFn, p)
		return
	}
	o.sendSelected(p)
}

// sendSelected releases a selected request onto the fabric once any
// rate-control hold has elapsed, stamping the release time the response's
// clone measures from (the RV timestamp mechanism of §IV-A).
func (o *Operator) sendSelected(p *Packet) {
	p.SelectedAt = o.eng.Now()
	if err := o.net.Launch(p, o.sw, p.Dst); err != nil {
		o.net.drop(p)
	}
}

// onCloneProcessed is the accelerator's callback for response clones.
func (o *Operator) onCloneProcessed() { o.stats.ResponseClones++ }
