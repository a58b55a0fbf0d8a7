package fabric

import (
	"errors"
	"runtime"
	"testing"

	"netrs/internal/kv"
	"netrs/internal/placement"
	"netrs/internal/selection"
	"netrs/internal/sim"
	"netrs/internal/topo"
	"netrs/internal/wire"
)

// spySelector records selection traffic and always picks the first
// candidate.
type spySelector struct {
	picks     int
	responses int
	lastLat   sim.Time
	lastQ     int
	delay     sim.Time
}

func (s *spySelector) Pick(c []int) (int, sim.Time, error) {
	if len(c) == 0 {
		return 0, 0, errors.New("no candidates")
	}
	s.picks++
	return c[0], s.delay, nil
}

func (s *spySelector) Rank(dst, c []int) []int { return append(dst, c...) }

func (s *spySelector) OnResponse(_ int, lat sim.Time, st kv.Status) {
	s.responses++
	s.lastLat = lat
	s.lastQ = st.QueueSize
}

func (s *spySelector) Name() string { return "spy" }

// harness wires a minimal NetRS deployment on a k=4 fat-tree: one client,
// three replica servers (one per tier distance), echo server handlers, and
// a controller with a single host-level traffic group for the client.
type harness struct {
	t       *testing.T
	eng     *sim.Engine
	ft      *topo.Topology
	net     *Network
	ctrl    *Controller
	client  topo.NodeID
	servers []topo.NodeID // server id = index

	got     map[uint64]*Packet
	gotTime map[uint64]sim.Time
	spies   map[uint16]*spySelector
}

// installDBs installs a replica-group database and server locator on every
// operator, as the cluster runner does.
func installDBs(net *Network, db GroupDB, loc ServerLocator) {
	for _, op := range net.OperatorsSorted() {
		op.SetDatabases(db, loc)
	}
}

// singlePartition builds the one-partition shard set a fabric runs on when
// it is not sharded, and returns it with its engine.
func singlePartition(tb testing.TB) (*sim.ShardSet, *sim.Engine) {
	tb.Helper()
	set, err := sim.NewShardSet(1, 1, NewDefaultConfig().LinkLatency)
	if err != nil {
		tb.Fatal(err)
	}
	return set, set.Engine(0)
}

func newHarness(t *testing.T, factory func(uint16, *sim.Engine) (Selector, error)) *harness {
	t.Helper()
	set, eng := singlePartition(t)
	h := &harness{
		t:       t,
		eng:     eng,
		got:     make(map[uint64]*Packet),
		gotTime: make(map[uint64]sim.Time),
		spies:   make(map[uint16]*spySelector),
	}
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	h.ft = ft
	if factory == nil {
		factory = func(id uint16, _ *sim.Engine) (Selector, error) {
			s := &spySelector{}
			h.spies[id] = s
			return s, nil
		}
	}
	net, err := NewNetwork(set, ft, NewDefaultConfig(), factory)
	if err != nil {
		t.Fatal(err)
	}
	h.net = net

	hosts := ft.Hosts()
	h.client = hosts[0]                                     // rack 0, pod 0
	h.servers = []topo.NodeID{hosts[2], hosts[8], hosts[1]} // same pod, other pod, same rack

	for sid, sh := range h.servers {
		sid, sh := sid, sh
		if err := net.AttachHost(sh, func(p *Packet) { h.serveEcho(sid, sh, p) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.AttachHost(h.client, func(p *Packet) {
		h.got[p.ReqID] = p
		h.gotTime[p.ReqID] = h.eng.Now()
	}); err != nil {
		t.Fatal(err)
	}

	groups := []GroupDef{{ID: 0, Rack: 0, Hosts: []topo.NodeID{h.client}}}
	ctrl, err := NewController(net, groups, placement.AccelParams{
		Cores: 1, SelectionTime: 5 * sim.Microsecond, MaxUtilization: 0.5,
	}, 1e9, placement.Options{Method: placement.MethodExact})
	if err != nil {
		t.Fatal(err)
	}
	h.ctrl = ctrl
	installDBs(net,
		func(rgid uint32) ([]int, error) {
			if rgid != 1 {
				return nil, errors.New("unknown group")
			}
			return []int{0, 1, 2}, nil
		},
		func(server int) (topo.NodeID, error) {
			if server < 0 || server >= len(h.servers) {
				return topo.InvalidNode, errors.New("unknown server")
			}
			return h.servers[server], nil
		},
	)
	return h
}

// serveEcho responds immediately, turning the request around.
func (h *harness) serveEcho(sid int, host topo.NodeID, p *Packet) {
	p.Server = sid
	p.Status = kv.Status{QueueSize: 3, ServiceTimeNs: float64(sim.Millisecond)}
	if err := h.net.SendResponse(p, host); err != nil {
		h.t.Errorf("send response: %v", err)
	}
}

func (h *harness) sendRequest(reqID uint64) { h.sendKeyed(reqID, 0, false) }

// sendKeyed issues a NetRS request for key, a write when write is set.
func (h *harness) sendKeyed(reqID, key uint64, write bool) {
	p := &Packet{
		ReqID:        reqID,
		RGID:         1,
		Key:          key,
		Write:        write,
		Dst:          topo.InvalidNode,
		Backup:       h.servers[2],
		BackupServer: 2,
	}
	if err := h.net.SendNetRSRequest(p, h.client); err != nil {
		h.t.Fatal(err)
	}
}

func (h *harness) torOperator() *Operator {
	tor, err := h.ft.ToROfRack(0)
	if err != nil {
		h.t.Fatal(err)
	}
	op, err := h.net.Operator(tor)
	if err != nil {
		h.t.Fatal(err)
	}
	return op
}

func TestNetworkConstructionValidation(t *testing.T) {
	set, _ := singlePartition(t)
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(uint16, *sim.Engine) (Selector, error) { return &spySelector{}, nil }
	if _, err := NewNetwork(nil, ft, NewDefaultConfig(), factory); !errors.Is(err, ErrInvalidParam) {
		t.Error("nil shard set accepted")
	}
	bad := NewDefaultConfig()
	bad.AccelCores = 0
	if _, err := NewNetwork(set, ft, bad, factory); !errors.Is(err, ErrInvalidParam) {
		t.Error("zero cores accepted")
	}
	net, err := NewNetwork(set, ft, NewDefaultConfig(), factory)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.OperatorsSorted()) != len(ft.Switches()) {
		t.Fatalf("operators = %d, want one per switch (%d)", len(net.OperatorsSorted()), len(ft.Switches()))
	}
	if err := net.AttachHost(ft.Switches()[0], func(*Packet) {}); !errors.Is(err, ErrInvalidParam) {
		t.Error("attached handler to a switch")
	}
	if err := net.AttachHost(ft.Hosts()[0], nil); !errors.Is(err, ErrInvalidParam) {
		t.Error("nil handler accepted")
	}
	if _, err := net.Operator(ft.Hosts()[0]); !errors.Is(err, ErrNoOperator) {
		t.Error("operator lookup on host succeeded")
	}
	if _, err := net.OperatorByID(9999); !errors.Is(err, ErrNoOperator) {
		t.Error("bogus operator id resolved")
	}
}

func TestToRPlanEndToEndLatency(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	h.sendRequest(1)
	h.eng.Run()

	resp, ok := h.got[1]
	if !ok {
		t.Fatal("no response delivered")
	}
	torOp := h.torOperator()
	if resp.RID != torOp.ID() {
		t.Fatalf("response RID = %d, want ToR operator %d", resp.RID, torOp.ID())
	}
	if resp.Magic != wire.MagicMonitor {
		t.Fatalf("delivered magic = %x, want Mmon after RSNode", uint64(resp.Magic))
	}
	// Spy picks server 0 (hosts[2]: same pod, different rack).
	// client→ToR 30 µs; accel 2.5 + 5 = 7.5 µs; ToR→server 3 links =
	// 90 µs; response server→ToR(RSNode) 90 µs; ToR→client 30 µs.
	want := sim.FromUs(30 + 7.5 + 90 + 90 + 30)
	if got := h.gotTime[1]; got != want {
		t.Fatalf("end-to-end latency = %v, want %v", got, want)
	}

	stats := torOp.Stats()
	if stats.Stamped != 1 || stats.Selections != 1 || stats.ResponseClones != 1 || stats.Degraded != 0 {
		t.Fatalf("operator stats = %+v", stats)
	}
	spy := h.spies[torOp.ID()]
	if spy.picks != 1 || spy.responses != 1 {
		t.Fatalf("selector saw %d picks, %d responses", spy.picks, spy.responses)
	}
	if spy.lastQ != 3 {
		t.Fatalf("piggybacked queue = %d", spy.lastQ)
	}
	// RSNode-observed latency: ToR→server→ToR = 180 µs.
	if spy.lastLat != sim.FromUs(180) {
		t.Fatalf("RSNode-observed latency = %v, want 180µs", spy.lastLat)
	}
}

func TestMonitorCountsAndTiers(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	// The spy always picks server 0 (same pod, different rack → Tier-1).
	for i := uint64(1); i <= 5; i++ {
		h.sendRequest(i)
	}
	h.eng.Run()
	mon := h.torOperator().Monitor()
	if mon == nil {
		t.Fatal("ToR operator lacks a monitor")
	}
	if mon.Total() != 5 {
		t.Fatalf("monitor counted %d, want 5", mon.Total())
	}
	rates, ok := mon.Snapshot(h.eng.Now())
	if !ok {
		t.Fatal("empty snapshot window")
	}
	r := rates[0]
	if r[topo.TierAgg] == 0 || r[topo.TierCore] != 0 || r[topo.TierToR] != 0 {
		t.Fatalf("tier rates = %v, want all traffic in tier 1", r)
	}
	// Snapshot resets.
	if mon.Total() != 0 {
		t.Fatal("snapshot did not reset counters")
	}
	if _, ok := mon.Snapshot(h.eng.Now()); ok {
		t.Fatal("zero-width window reported ok")
	}
}

func TestCoreRSNodeViaILP(t *testing.T) {
	h := newHarness(t, nil)
	// Pure tier-0 traffic, huge budget: the exact ILP picks one core
	// RSNode.
	plan, err := h.ctrl.UpdateRSPWithTraffic(map[int][3]float64{0: {1000, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.RSNodes) != 1 {
		t.Fatalf("plan has %d RSNodes", len(plan.RSNodes))
	}
	if h.ctrl.RSPVersions() != 1 {
		t.Fatalf("RSP versions = %d", h.ctrl.RSPVersions())
	}
	cur, ok := h.ctrl.CurrentPlan()
	if !ok || len(cur.RSNodes) != 1 {
		t.Fatal("CurrentPlan not recorded")
	}
	rsOp, err := h.net.OperatorByID(uint16(plan.RSNodes[0] + 1))
	if err != nil {
		t.Fatal(err)
	}
	if rsOp.Tier() != topo.TierCore {
		t.Fatalf("RSNode tier = %d, want core", rsOp.Tier())
	}

	h.sendRequest(7)
	h.eng.Run()
	resp, ok := h.got[7]
	if !ok {
		t.Fatal("no response")
	}
	if resp.RID != rsOp.ID() {
		t.Fatalf("response RID = %d, want core RSNode %d", resp.RID, rsOp.ID())
	}
	if rsOp.Stats().Selections != 1 || rsOp.Stats().ResponseClones != 1 {
		t.Fatalf("core RSNode stats = %+v", rsOp.Stats())
	}
	// The ToR stamped but did not select.
	if h.torOperator().Stats().Selections != 0 {
		t.Fatal("ToR selected despite core RSNode plan")
	}
}

func TestDegradedReplicaSelection(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	h.torOperator().Rules().SetDRS(0)
	h.sendRequest(9)
	h.eng.Run()
	resp, ok := h.got[9]
	if !ok {
		t.Fatal("no response under DRS")
	}
	if resp.Server != 2 {
		t.Fatalf("DRS served by %d, want backup server 2", resp.Server)
	}
	if resp.RID != wire.DegradedRID {
		t.Fatalf("DRS response RID = %d", resp.RID)
	}
	if resp.Magic != wire.MagicMonitor {
		t.Fatalf("DRS response magic = %x, want Mmon (monitor-visible)", uint64(resp.Magic))
	}
	stats := h.torOperator().Stats()
	if stats.Degraded != 1 || stats.Selections != 0 {
		t.Fatalf("operator stats = %+v", stats)
	}
	// Backup is hosts[1]: same rack → monitor sees Tier-2 traffic.
	rates, ok := h.torOperator().Monitor().Snapshot(h.eng.Now())
	if !ok || rates[0][topo.TierToR] == 0 {
		t.Fatalf("DRS response not monitor-counted as tier-2: %v", rates)
	}
}

// TestSendResponseTurnsRequestAround turns a degraded request, stamped
// with its client ToR's source marker, into its response: the packet heads
// back to its source with the inverted magic and no marker, so the
// server's ToR stamps its own, and the handle and both timestamps ride
// along to the client.
func TestSendResponseTurnsRequestAround(t *testing.T) {
	h := newHarness(t, nil)
	server := h.servers[1] // another pod
	p := h.net.NewPacketIn(0)
	p.ReqID = 7
	p.Magic = wire.Transform(wire.MagicMonitor)
	p.RID = wire.DegradedRID
	p.Src, p.Dst = h.client, server
	p.SM, p.HasSM = wire.SourceMarker{Pod: 0, Rack: 0}, true
	p.Handle = 42<<32 | 3
	p.SentAt, p.SelectedAt = 5*sim.Microsecond, 9*sim.Microsecond
	if err := h.net.SendResponse(p, server); err != nil {
		t.Fatal(err)
	}
	if p.Src != server || p.Dst != h.client || p.Magic != wire.MagicMonitor || p.HasSM {
		t.Fatalf("turned around to src %d dst %d magic %x SM %v, want %d→%d, Mmon, no SM",
			p.Src, p.Dst, uint64(p.Magic), p.HasSM, server, h.client)
	}
	h.eng.Run()
	got := h.got[7]
	if got != p {
		t.Fatal("the response is not the request's packet")
	}
	node, err := h.ft.Node(server)
	if err != nil {
		t.Fatal(err)
	}
	if want := (wire.SourceMarker{Pod: uint16(node.Pod), Rack: uint16(node.Rack)}); !got.HasSM || got.SM != want {
		t.Errorf("source marker %+v (stamped %v), want the server ToR's %+v", got.SM, got.HasSM, want)
	}
	if got.Handle != 42<<32|3 || got.SentAt != 5*sim.Microsecond || got.SelectedAt != 9*sim.Microsecond {
		t.Errorf("handle %x, sent %v, selected %v did not ride along", got.Handle, got.SentAt, got.SelectedAt)
	}
	if n := h.net.PacketsInUse(); n != 1 {
		t.Errorf("%d packets in use before the client releases, want 1", n)
	}
	h.net.Release(got)
	if n := h.net.PacketsInUse(); n != 0 {
		t.Errorf("%d packets in use after the client releases, want 0", n)
	}
}

func TestUnknownHostDegrades(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	// A second host in rack 0 without any group binding.
	stranger := h.ft.Hosts()[1] // also used as server 2's host... pick rack0 host
	// hosts[1] is server 2; use a request sent from the client but with a
	// source the rules do not know: rebind by clearing the rules.
	_ = stranger
	h.torOperator().Rules().slotOfHost = nil
	h.sendRequest(11)
	h.eng.Run()
	resp, ok := h.got[11]
	if !ok {
		t.Fatal("no response for unknown host")
	}
	if resp.Server != 2 || resp.RID != wire.DegradedRID {
		t.Fatalf("unknown host handled by %d/%d, want DRS backup", resp.Server, resp.RID)
	}
}

func TestOperatorFailureHandling(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	torOp := h.torOperator()

	// In-flight failure: operator fails before the request arrives; the
	// switch degrades it on the spot.
	torOp.Fail()
	if !torOp.Failed() {
		t.Fatal("Fail() not recorded")
	}
	h.sendRequest(20)
	h.eng.Run()
	if resp := h.got[20]; resp == nil || resp.Server != 2 {
		t.Fatalf("failed-RSNode request not degraded: %+v", resp)
	}

	// Controller-level handling: groups assigned to the failed operator
	// flip to DRS at the ToR.
	if err := h.ctrl.HandleOperatorFailure(torOp); err != nil {
		t.Fatal(err)
	}
	plan, _ := h.ctrl.CurrentPlan()
	if len(plan.Degraded) != 1 || plan.Assignment[0] != -1 {
		t.Fatalf("plan after failure = %+v", plan)
	}
	h.sendRequest(21)
	h.eng.Run()
	if resp := h.got[21]; resp == nil || resp.RID != wire.DegradedRID {
		t.Fatalf("post-failure request not under DRS: %+v", resp)
	}
	torOp.Recover()
	if torOp.Failed() {
		t.Fatal("Recover() not recorded")
	}
}

func TestControllerFailureWithoutPlan(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.ctrl.HandleOperatorFailure(h.torOperator()); err == nil {
		t.Fatal("failure handling without a plan accepted")
	}
}

func TestControllerRecoveryWithoutPlan(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.ctrl.HandleOperatorRecovery(h.torOperator()); err == nil {
		t.Fatal("recovery handling without a plan accepted")
	}
}

func TestControllerDoubleFailureIdempotent(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	torOp := h.torOperator()
	if err := h.ctrl.HandleOperatorFailure(torOp); err != nil {
		t.Fatal(err)
	}
	plan, _ := h.ctrl.CurrentPlan()
	if len(plan.Degraded) != 1 {
		t.Fatalf("plan.Degraded after first failure = %v", plan.Degraded)
	}
	// A repeated failure report must not re-flip or re-append.
	if err := h.ctrl.HandleOperatorFailure(torOp); err != nil {
		t.Fatalf("second failure report errored: %v", err)
	}
	plan, _ = h.ctrl.CurrentPlan()
	if len(plan.Degraded) != 1 {
		t.Fatalf("plan.Degraded after double failure = %v, want one entry", plan.Degraded)
	}
	if got := h.ctrl.FailedOperators(); len(got) != 1 || got[0] != torOp.ID() {
		t.Fatalf("FailedOperators = %v, want [%d]", got, torOp.ID())
	}
}

func TestControllerRecoveryRestoresAssignments(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	torOp := h.torOperator()
	before, _ := h.ctrl.CurrentPlan()
	wantAssign := before.Assignment[0]

	if err := h.ctrl.HandleOperatorFailure(torOp); err != nil {
		t.Fatal(err)
	}
	if !torOp.Failed() {
		t.Fatal("failure did not mark the operator")
	}
	h.sendRequest(30)
	h.eng.Run()
	if resp := h.got[30]; resp == nil || resp.RID != wire.DegradedRID {
		t.Fatalf("post-failure request not under DRS: %+v", resp)
	}

	if err := h.ctrl.HandleOperatorRecovery(torOp); err != nil {
		t.Fatal(err)
	}
	if torOp.Failed() {
		t.Fatal("recovery did not clear the operator's failed flag")
	}
	after, _ := h.ctrl.CurrentPlan()
	if after.Assignment[0] != wantAssign {
		t.Fatalf("assignment after recovery = %d, want restored %d", after.Assignment[0], wantAssign)
	}
	if len(after.Degraded) != 0 {
		t.Fatalf("plan.Degraded after recovery = %v, want empty", after.Degraded)
	}
	if got := h.ctrl.FailedOperators(); len(got) != 0 {
		t.Fatalf("FailedOperators after recovery = %v, want none", got)
	}
	// Traffic steers through the re-admitted RSNode again.
	h.sendRequest(31)
	h.eng.Run()
	if resp := h.got[31]; resp == nil || resp.RID != torOp.ID() {
		t.Fatalf("post-recovery request RID = %+v, want RSNode %d", resp, torOp.ID())
	}

	// Recovering again (or recovering an operator that never failed) is an
	// error: there is no failure record to restore from.
	if err := h.ctrl.HandleOperatorRecovery(torOp); !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("double recovery err = %v, want ErrInvalidParam", err)
	}
}

// TestControllerDeployPrunesFailureRecords pins the one deploy path for a
// crash before a traffic solve: the solve gives the failed operator no
// capacity, so the group lands on a live operator, and the failure record
// survives (shrunk to the groups still in DRS), so the crash can still be
// recovered.
func TestControllerDeployPrunesFailureRecords(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	torOp := h.torOperator()
	if err := h.ctrl.HandleOperatorFailure(torOp); err != nil {
		t.Fatal(err)
	}
	plan, err := h.ctrl.UpdateRSPWithTraffic(map[int][3]float64{0: {1000, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if oi := plan.Assignment[0]; oi == -1 || uint16(h.ctrl.problem.Operators[oi].ID) == torOp.id {
		t.Fatalf("redeploy assigned the group to operator index %d, want a live operator", oi)
	}
	if got := h.ctrl.FailedOperators(); len(got) != 1 || got[0] != torOp.id {
		t.Fatalf("FailedOperators after redeploy = %v, want [%d]", got, torOp.id)
	}
	// Recovery re-admits the operator but restores nothing: the new plan
	// superseded the pre-failure binding.
	if err := h.ctrl.HandleOperatorRecovery(torOp); err != nil {
		t.Fatalf("recovery after redeploy: %v", err)
	}
	if cur, _ := h.ctrl.CurrentPlan(); cur.Assignment[0] != plan.Assignment[0] {
		t.Fatalf("recovery moved the group %d → %d", plan.Assignment[0], cur.Assignment[0])
	}
}

func TestLinkExtraDelaysHops(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	h.sendRequest(1)
	h.eng.Run()
	base := h.gotTime[1]

	// Spike the client↔ToR edge: the request's first hop and the response's
	// last hop both pay the extra.
	tor, err := h.ft.ToROfRack(0)
	if err != nil {
		t.Fatal(err)
	}
	const extra = 200 * sim.Microsecond
	if err := h.net.SetLinkExtra(h.client, tor, extra); err != nil {
		t.Fatal(err)
	}
	if got := h.net.LinkExtra(tor, h.client); got != extra {
		t.Fatalf("LinkExtra = %v, want %v (order-insensitive)", got, extra)
	}
	start := h.eng.Now()
	h.sendRequest(2)
	h.eng.Run()
	if got := h.gotTime[2] - start; got != base+2*extra {
		t.Fatalf("spiked latency = %v, want %v", got, base+2*extra)
	}

	// Clearing restores the baseline.
	if err := h.net.SetLinkExtra(h.client, tor, 0); err != nil {
		t.Fatal(err)
	}
	start = h.eng.Now()
	h.sendRequest(3)
	h.eng.Run()
	if got := h.gotTime[3] - start; got != base {
		t.Fatalf("cleared latency = %v, want baseline %v", got, base)
	}

	// A non-existent edge is rejected.
	if err := h.net.SetLinkExtra(h.client, h.servers[1], extra); !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("nonadjacent SetLinkExtra err = %v, want ErrInvalidParam", err)
	}
}

func TestAcceleratorQueueing(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	// A burst of 10 simultaneous requests on a 1-core, 5 µs accelerator:
	// selections serialize.
	for i := uint64(1); i <= 10; i++ {
		h.sendRequest(i)
	}
	h.eng.Run()
	if len(h.got) != 10 {
		t.Fatalf("delivered %d of 10", len(h.got))
	}
	accel := h.torOperator().Accelerator()
	if accel.Selections() != 10 {
		t.Fatalf("selections = %d", accel.Selections())
	}
	if accel.MaxQueue() < 5 {
		t.Fatalf("max queue = %d, want burst backlog", accel.MaxQueue())
	}
	if accel.BusyTime() != 50*sim.Microsecond {
		t.Fatalf("busy time = %v, want 50µs", accel.BusyTime())
	}
	// First and last completion must differ by ≥ 9 service times.
	var minT, maxT sim.Time
	for _, at := range h.gotTime {
		if minT == 0 || at < minT {
			minT = at
		}
		if at > maxT {
			maxT = at
		}
	}
	if maxT-minT < 45*sim.Microsecond {
		t.Fatalf("burst spread = %v, want ≥ 45µs of serialization", maxT-minT)
	}
}

// TestAcceleratorBurstsKeepFIFOOrder sends three bursts into the ToR's
// 1-core, 5 µs accelerator while it is still busy with the previous
// ones: 24 requests at 0, 30 at 52.5 µs and 80 at 152.5 µs. Each later
// burst lands with the queue's head part-way round the ring, so the ring
// wraps and then grows (16 → 32 → 64 → 128 slots) with its head off slot
// 0. The spy picks the same server for every request, so responses
// arrive in selection order, which must be send order; and the queue
// peaks as the third burst lands: 54 sent − 30 selected + 80 = 104.
func TestAcceleratorBurstsKeepFIFOOrder(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	next := uint64(1)
	burst := func(n int) {
		for i := 0; i < n; i++ {
			h.sendRequest(next)
			next++
		}
	}
	burst(24)
	h.eng.MustSchedule(sim.FromUs(52.5), func() { burst(30) })
	h.eng.MustSchedule(sim.FromUs(152.5), func() { burst(80) })
	h.eng.Run()
	total := next - 1
	if uint64(len(h.got)) != total {
		t.Fatalf("delivered %d of %d", len(h.got), total)
	}
	for id := uint64(2); id <= total; id++ {
		if h.gotTime[id] <= h.gotTime[id-1] {
			t.Fatalf("request %d answered at %v, not after request %d at %v: selections left FIFO order",
				id, h.gotTime[id], id-1, h.gotTime[id-1])
		}
	}
	accel := h.torOperator().Accelerator()
	if accel.Selections() != total {
		t.Fatalf("selections = %d, want %d", accel.Selections(), total)
	}
	if accel.MaxQueue() != 104 {
		t.Fatalf("max queue = %d, want 104", accel.MaxQueue())
	}
}

func TestRateControlDelayAppliedInNetwork(t *testing.T) {
	spy := &spySelector{delay: 500 * sim.Microsecond}
	factory := func(uint16, *sim.Engine) (Selector, error) { return spy, nil }
	h := newHarness(t, factory)
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	h.sendRequest(1)
	h.eng.Run()
	// Baseline 247.5 µs plus the 500 µs rate-control hold.
	want := sim.FromUs(30+7.5+90+90+30) + 500*sim.Microsecond
	if got := h.gotTime[1]; got != want {
		t.Fatalf("latency with hold = %v, want %v", got, want)
	}
}

func TestCloneDoesNotDelayResponse(t *testing.T) {
	// Even with a busy accelerator, response clones must not add latency
	// to the response path: only request selection queues.
	h := newHarness(t, nil)
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	h.sendRequest(1)
	h.eng.Run()
	base := h.gotTime[1]
	if clones := h.torOperator().Stats().ResponseClones; clones != 1 {
		t.Fatalf("clones = %d", clones)
	}
	// The one selection is the accelerator's only busy time: the clone
	// took no core.
	accel := h.torOperator().Accelerator()
	if busy, svc := accel.BusyTime(), NewDefaultConfig().AccelService; busy != svc {
		t.Fatalf("accelerator busy %v, want one selection's %v", busy, svc)
	}
	if u, want := accel.Utilization(), accel.UtilizationAt(h.eng.Now()); u != want || u <= 0 || accel.UtilizationAt(0) != 0 {
		t.Fatalf("utilization %v, want %v; at span 0 %v", u, want, accel.UtilizationAt(0))
	}
	// The clone path cost nothing: latency equals the handcomputed value
	// from TestToRPlanEndToEndLatency.
	if base != sim.FromUs(30+7.5+90+90+30) {
		t.Fatalf("clone added latency: %v", base)
	}
}

func TestNetworkStatsProgress(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	h.sendRequest(1)
	h.eng.Run()
	forwards, delivered, dropped := h.net.Stats()
	if forwards == 0 || delivered != 2 { // request at server + response at client
		t.Fatalf("stats: forwards=%d delivered=%d", forwards, delivered)
	}
	if dropped != 0 {
		t.Fatalf("dropped %d packets", dropped)
	}
}

func TestControllerValidation(t *testing.T) {
	h := newHarness(t, nil)
	accel := placement.AccelParams{Cores: 1, SelectionTime: 5 * sim.Microsecond, MaxUtilization: 0.5}
	if _, err := NewController(nil, h.ctrl.Groups(), accel, 1, placement.Options{}); !errors.Is(err, ErrInvalidParam) {
		t.Error("nil network accepted")
	}
	if _, err := NewController(h.net, nil, accel, 1, placement.Options{}); !errors.Is(err, ErrInvalidParam) {
		t.Error("no groups accepted")
	}
	dup := []GroupDef{{ID: 1, Rack: 0, Hosts: h.ctrl.Groups()[0].Hosts}, {ID: 1, Rack: 0, Hosts: h.ctrl.Groups()[0].Hosts}}
	if _, err := NewController(h.net, dup, accel, 1, placement.Options{}); !errors.Is(err, ErrInvalidParam) {
		t.Error("duplicate group ids accepted")
	}
	bad := []GroupDef{{ID: 1, Rack: 999, Hosts: h.ctrl.Groups()[0].Hosts}}
	if _, err := NewController(h.net, bad, accel, 1, placement.Options{}); !errors.Is(err, ErrInvalidParam) {
		t.Error("bogus rack accepted")
	}
	empty := []GroupDef{{ID: 1, Rack: 0}}
	if _, err := NewController(h.net, empty, accel, 1, placement.Options{}); !errors.Is(err, ErrInvalidParam) {
		t.Error("empty host list accepted")
	}
}

func TestSelectorIntegrationWithC3(t *testing.T) {
	// End-to-end with the real C3 selector on the accelerator.
	factory := func(uint16, *sim.Engine) (Selector, error) {
		return selection.New(selection.AlgoC3NoRate, nil, nil)
	}
	// selection.New needs the engine for C3; build harness manually.
	set, eng := singlePartition(t)
	h := &harness{
		t:       t,
		eng:     eng,
		got:     make(map[uint64]*Packet),
		gotTime: make(map[uint64]sim.Time),
		spies:   make(map[uint16]*spySelector),
	}
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	h.ft = ft
	factory = func(uint16, *sim.Engine) (Selector, error) {
		return selection.New(selection.AlgoC3NoRate, h.eng, nil)
	}
	net, err := NewNetwork(set, ft, NewDefaultConfig(), factory)
	if err != nil {
		t.Fatal(err)
	}
	h.net = net
	hosts := ft.Hosts()
	h.client = hosts[0]
	h.servers = []topo.NodeID{hosts[2], hosts[8], hosts[1]}
	for sid, sh := range h.servers {
		sid, sh := sid, sh
		if err := net.AttachHost(sh, func(p *Packet) { h.serveEcho(sid, sh, p) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.AttachHost(h.client, func(p *Packet) {
		h.got[p.ReqID] = p
		h.gotTime[p.ReqID] = h.eng.Now()
	}); err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(net, []GroupDef{{ID: 0, Rack: 0, Hosts: []topo.NodeID{h.client}}},
		placement.AccelParams{Cores: 1, SelectionTime: 5 * sim.Microsecond, MaxUtilization: 0.5},
		1e9, placement.Options{Method: placement.MethodExact})
	if err != nil {
		t.Fatal(err)
	}
	h.ctrl = ctrl
	installDBs(net,
		func(uint32) ([]int, error) { return []int{0, 1, 2}, nil },
		func(server int) (topo.NodeID, error) { return h.servers[server], nil },
	)
	if err := ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		h.sendRequest(i)
	}
	h.eng.Run()
	if len(h.got) != 20 {
		t.Fatalf("C3-driven fabric delivered %d of 20", len(h.got))
	}
}

// TestFailedRSNodeLeavesNoPerRequestState covers requests whose RSNode
// fails while their responses are in flight: the failed operator skips the
// response clone, so the accelerator never learns the request finished.
// The selection timestamp rides on the packet, so nothing is left behind
// for such requests; the heap after tens of thousands of them must not
// grow with their count.
func TestFailedRSNodeLeavesNoPerRequestState(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	if err := h.net.AttachHost(h.client, func(*Packet) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	torOp := h.torOperator()
	// Selection leaves the ToR at 37.5 µs and the response returns to it at
	// 217.5 µs: fail the RSNode in between, recover it after.
	run := func(from, n uint64) {
		for id := from; id < from+n; id++ {
			h.sendRequest(id)
			h.eng.MustSchedule(100*sim.Microsecond, torOp.Fail)
			h.eng.MustSchedule(300*sim.Microsecond, torOp.Recover)
			h.eng.Run()
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run(1, 1000)
	before := heap()
	const n = 30000
	run(1001, n)
	after := heap()
	if delivered != 1000+n {
		t.Fatalf("delivered %d responses, want %d", delivered, 1000+n)
	}
	if st := torOp.Stats(); st.Selections != 1000+n || st.ResponseClones != 0 {
		t.Fatalf("operator stats = %+v, want every request selected and no clone processed", st)
	}
	if after > before && after-before > 2*n {
		t.Fatalf("heap grew %d bytes over %d requests whose RSNode failed mid-flight", after-before, n)
	}
}

// BenchmarkForwardHop times plain per-hop forwarding, the fabric's share
// of every request: a pooled packet crosses a k=8 fat-tree between pods
// (six links, five switch pipelines) per iteration. It reports ns per
// forwarded hop; steady state allocates nothing.
func BenchmarkForwardHop(b *testing.B) {
	set, eng := singlePartition(b)
	ft, err := topo.NewFatTree(8)
	if err != nil {
		b.Fatal(err)
	}
	net, err := NewNetwork(set, ft, NewDefaultConfig(), func(uint16, *sim.Engine) (Selector, error) {
		return &spySelector{}, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	hosts := ft.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	if err := net.AttachHost(dst, net.Release); err != nil {
		b.Fatal(err)
	}
	send := func(id uint64) {
		p := net.NewPacketIn(0)
		p.ReqID = id
		p.Dst = dst
		if err := net.SendDirect(p, src); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
	send(0) // warm the packet pool and the path buffer
	before, _, _ := net.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(uint64(i + 1))
	}
	b.StopTimer()
	after, _, _ := net.Stats()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(after-before), "ns/hop")
}

// TestRulesDenseTable exercises the rule table directly: hosts bound out of
// order (the table re-bases to the lowest), gaps and hosts outside the
// bound span, groups without an RSNode, and the DRS flag's interplay with
// SetRSNode.
func TestRulesDenseTable(t *testing.T) {
	r := NewRules()
	if _, _, _, known := r.Lookup(5); known {
		t.Fatal("empty table resolved a host")
	}
	r.BindHost(12, 7)
	r.BindHost(10, 3) // below the first bound host
	r.BindHost(14, 7)
	r.SetRSNode(7, 21)
	type want struct {
		group int
		rid   uint16
		drs   bool
		known bool
	}
	check := func(host topo.NodeID, w want) {
		t.Helper()
		g, rid, drs, known := r.Lookup(host)
		if (want{g, rid, drs, known}) != w {
			t.Errorf("Lookup(%d) = %d/%d/%v/%v, want %+v", host, g, rid, drs, known, w)
		}
	}
	check(12, want{7, 21, false, true})
	check(14, want{7, 21, false, true})
	check(10, want{3, 0, false, false}) // bound, but its group has no RSNode
	for _, h := range []topo.NodeID{9, 11, 13, 15, -1} {
		check(h, want{})
	}
	r.SetDRS(3)
	check(10, want{3, wire.DegradedRID, true, true})
	r.SetRSNode(3, 4) // clears the DRS flag
	check(10, want{3, 4, false, true})
	r.BindHost(12, 3) // rebinding moves the host
	check(12, want{3, 4, false, true})
	check(14, want{7, 21, false, true})
}
