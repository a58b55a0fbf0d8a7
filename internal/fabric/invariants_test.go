package fabric

import (
	"testing"

	"netrs/internal/kv"
	"netrs/internal/placement"
	"netrs/internal/selection"
	"netrs/internal/sim"
	"netrs/internal/topo"
	"netrs/internal/wire"
)

// invariantWorld builds a randomized NetRS deployment on a k=4 fat-tree:
// several clients and servers at random hosts, random per-request replica
// groups, and a controller-installed plan. It checks the §I/§IV
// invariants after traffic has flowed.
type invariantWorld struct {
	t       *testing.T
	eng     *sim.Engine
	ft      *topo.Topology
	net     *Network
	ctrl    *Controller
	clients []topo.NodeID
	servers []topo.NodeID

	delivered map[uint64]*Packet
	rng       *sim.RNG
}

func newInvariantWorld(t *testing.T, seed uint64, schemeILP bool) *invariantWorld {
	t.Helper()
	set, eng := singlePartition(t)
	w := &invariantWorld{
		t:         t,
		eng:       eng,
		delivered: make(map[uint64]*Packet),
		rng:       sim.NewRNG(seed),
	}
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	w.ft = ft
	factory := func(uint16, *sim.Engine) (Selector, error) {
		return selection.New(selection.AlgoC3NoRate, w.eng, nil)
	}
	net, err := NewNetwork(set, ft, NewDefaultConfig(), factory)
	if err != nil {
		t.Fatal(err)
	}
	w.net = net

	// Random distinct roles: 4 clients, 4 servers.
	perm := w.rng.Perm(len(ft.Hosts()))
	for i := 0; i < 4; i++ {
		w.clients = append(w.clients, ft.Hosts()[perm[i]])
		w.servers = append(w.servers, ft.Hosts()[perm[4+i]])
	}
	for sid, host := range w.servers {
		sid, host := sid, host
		if err := net.AttachHost(host, func(p *Packet) {
			p.Server = sid
			p.Status = kv.Status{QueueSize: 1, ServiceTimeNs: 1000}
			if err := w.net.SendResponse(p, host); err != nil {
				w.t.Errorf("respond: %v", err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, host := range w.clients {
		if err := net.AttachHost(host, func(p *Packet) {
			w.delivered[p.ReqID] = p
		}); err != nil {
			t.Fatal(err)
		}
	}

	// One host-level group per client.
	var groups []GroupDef
	for i, host := range w.clients {
		node, err := ft.Node(host)
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, GroupDef{ID: i, Rack: node.Rack, Hosts: []topo.NodeID{host}})
	}
	ctrl, err := NewController(net, groups, placement.AccelParams{
		Cores: 1, SelectionTime: 5 * sim.Microsecond, MaxUtilization: 0.5,
	}, 1e9, placement.Options{Method: placement.MethodExact})
	if err != nil {
		t.Fatal(err)
	}
	w.ctrl = ctrl
	installDBs(net,
		func(rgid uint32) ([]int, error) {
			// Each RGID selects a contiguous pair of servers.
			a := int(rgid) % len(w.servers)
			b := (a + 1) % len(w.servers)
			return []int{a, b}, nil
		},
		func(server int) (topo.NodeID, error) { return w.servers[server], nil },
	)
	if schemeILP {
		if _, err := ctrl.UpdateRSPWithTraffic(map[int][3]float64{
			0: {100, 10, 1}, 1: {100, 10, 1}, 2: {100, 10, 1}, 3: {100, 10, 1},
		}); err != nil {
			t.Fatal(err)
		}
	} else if err := ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *invariantWorld) sendAll(n int) {
	for i := 0; i < n; i++ {
		client := w.clients[w.rng.Intn(len(w.clients))]
		rgid := uint32(w.rng.Intn(4))
		backup := int(rgid) % len(w.servers)
		p := &Packet{
			ReqID:        uint64(i + 1),
			RGID:         rgid,
			Dst:          topo.InvalidNode,
			Backup:       w.servers[backup],
			BackupServer: backup,
		}
		if err := w.net.SendNetRSRequest(p, client); err != nil {
			w.t.Fatal(err)
		}
	}
	w.eng.Run()
}

// TestInvariantEveryRequestCompletes: under random deployments and both
// plan shapes, every NetRS request yields exactly one delivered response
// and no packet is dropped.
func TestInvariantEveryRequestCompletes(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, ilp := range []bool{false, true} {
			w := newInvariantWorld(t, seed, ilp)
			const n = 50
			w.sendAll(n)
			if len(w.delivered) != n {
				t.Fatalf("seed %d ilp=%v: delivered %d of %d", seed, ilp, len(w.delivered), n)
			}
			if _, _, dropped := w.net.Stats(); dropped != 0 {
				t.Fatalf("seed %d ilp=%v: dropped %d packets", seed, ilp, dropped)
			}
		}
	}
}

// TestInvariantSingleRSNodePerRequest: §III-B Constraint 1 — exactly one
// RSNode selects each request, and the same RSNode sees the response
// clone (selections == clones per operator, and both sum to the request
// count).
func TestInvariantSingleRSNodePerRequest(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		w := newInvariantWorld(t, seed, true)
		const n = 40
		w.sendAll(n)
		var selections, clones uint64
		for _, op := range w.net.OperatorsSorted() {
			st := op.Stats()
			if st.Selections != st.ResponseClones {
				t.Fatalf("seed %d: operator %d selected %d but saw %d clones",
					seed, op.ID(), st.Selections, st.ResponseClones)
			}
			selections += st.Selections
			clones += st.ResponseClones
		}
		if selections != n {
			t.Fatalf("seed %d: %d selections for %d requests", seed, selections, n)
		}
	}
}

// TestInvariantResponsesCarrySourceMarkers: every delivered response has
// its SM stamped (by the server-side ToR) and arrives with the
// monitor-visible magic.
func TestInvariantResponsesCarrySourceMarkers(t *testing.T) {
	w := newInvariantWorld(t, 3, true)
	const n = 30
	w.sendAll(n)
	for id, p := range w.delivered {
		if !p.HasSM {
			t.Fatalf("response %d lacks a source marker", id)
		}
		if p.Magic != wire.MagicMonitor {
			t.Fatalf("response %d delivered with magic %x", id, uint64(p.Magic))
		}
		node, err := w.ft.Node(w.servers[p.Server])
		if err != nil {
			t.Fatal(err)
		}
		if int(p.SM.Rack) != node.Rack || int(p.SM.Pod) != node.Pod {
			t.Fatalf("response %d SM (%d,%d) does not match server rack (%d,%d)",
				id, p.SM.Pod, p.SM.Rack, node.Pod, node.Rack)
		}
	}
}

// TestInvariantMonitorsCountEveryResponse: the ToR monitors jointly count
// every delivered response exactly once.
func TestInvariantMonitorsCountEveryResponse(t *testing.T) {
	for _, ilp := range []bool{false, true} {
		w := newInvariantWorld(t, 5, ilp)
		const n = 35
		w.sendAll(n)
		var counted uint64
		for _, op := range w.net.OperatorsSorted() {
			if op.Monitor() != nil {
				counted += op.Monitor().Total()
			}
		}
		if counted != n {
			t.Fatalf("ilp=%v: monitors counted %d of %d responses", ilp, counted, n)
		}
	}
}
