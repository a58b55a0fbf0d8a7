package fabric

import (
	"errors"
	"testing"

	"netrs/internal/sim"
	"netrs/internal/topo"
)

// TestShardedNetworkMatchesSingle drives the same cross-pod NetRS flow —
// client in pod 0, RSNode on a core switch (the control partition), server
// in the last pod — through a Network on a single partition and one over
// the pod partitions at several worker counts, asserting identical per-request delivery times
// and counters. Every aggregation↔core hop of the sharded run crosses a
// partition boundary and therefore rides the exchange.
func TestShardedNetworkMatchesSingle(t *testing.T) {
	type outcome struct {
		deliveredAt map[uint64]sim.Time
		forwards    uint64
		delivered   uint64
		dropped     uint64
	}

	const requests = 20

	run := func(t *testing.T, workers int) outcome {
		t.Helper()
		ft, err := topo.NewFatTree(4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := NewDefaultConfig()
		parts := ft.PodPartitions()
		if workers == 0 {
			parts = 1
		}
		set, err := sim.NewShardSet(parts, workers, cfg.LinkLatency)
		if err != nil {
			t.Fatal(err)
		}
		net, err := NewNetwork(set, ft, cfg, func(uint16, *sim.Engine) (Selector, error) {
			return &spySelector{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		drive := func() {
			if err := set.Run(sim.Second, nil); err != nil {
				t.Fatal(err)
			}
		}

		hosts := ft.Hosts()
		client := hosts[0]
		server := hosts[len(hosts)-1]
		coreOp, err := net.Operator(ft.Cores()[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range net.OperatorsSorted() {
			op.SetDatabases(
				func(rgid uint32) ([]int, error) {
					if rgid != 1 {
						return nil, errors.New("unknown group")
					}
					return []int{0}, nil
				},
				func(s int) (topo.NodeID, error) {
					if s != 0 {
						return topo.InvalidNode, errors.New("unknown server")
					}
					return server, nil
				},
			)
		}
		tor, err := ft.ToROfRack(0)
		if err != nil {
			t.Fatal(err)
		}
		torOp, err := net.Operator(tor)
		if err != nil {
			t.Fatal(err)
		}
		torOp.Rules().BindHost(client, 0)
		torOp.Rules().SetRSNode(0, coreOp.ID())

		out := outcome{deliveredAt: make(map[uint64]sim.Time)}
		if err := net.AttachHost(server, func(p *Packet) {
			if err := net.SendResponse(p, server); err != nil {
				t.Errorf("send response: %v", err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := net.AttachHost(client, func(p *Packet) {
			out.deliveredAt[p.ReqID] = net.EngineOf(client).Now()
		}); err != nil {
			t.Fatal(err)
		}

		// Stagger injections through the client partition's engine so each
		// request enters the fabric at a distinct instant.
		clientEng := net.EngineOf(client)
		for i := 0; i < requests; i++ {
			req := &Packet{ReqID: uint64(i + 1), RGID: 1, Dst: topo.InvalidNode, Backup: server}
			clientEng.MustScheduleArg(sim.Time(i)*50*sim.Microsecond, func(arg any) {
				if err := net.SendNetRSRequest(arg.(*Packet), client); err != nil {
					t.Errorf("send request: %v", err)
				}
			}, req)
		}
		drive()
		out.forwards, out.delivered, out.dropped = net.Stats()
		return out
	}

	want := run(t, 0)
	if len(want.deliveredAt) != requests {
		t.Fatalf("reference delivered %d responses, want %d", len(want.deliveredAt), requests)
	}
	if want.dropped != 0 {
		t.Fatalf("reference dropped %d packets", want.dropped)
	}
	for _, workers := range []int{1, 2, 4} {
		got := run(t, workers)
		if got.forwards != want.forwards || got.delivered != want.delivered || got.dropped != want.dropped {
			t.Errorf("workers=%d: stats (%d,%d,%d), want (%d,%d,%d)", workers,
				got.forwards, got.delivered, got.dropped, want.forwards, want.delivered, want.dropped)
		}
		for id, at := range want.deliveredAt {
			if got.deliveredAt[id] != at {
				t.Errorf("workers=%d: request %d delivered at %v, want %v", workers, id, got.deliveredAt[id], at)
			}
		}
	}
}

// TestShardedPacketPoolReuse pins the packet free lists through the
// exchange. Every packet makes its whole round trip: the server turns the
// request around, and the client releases the response into the free list
// of its own partition. So after a burst every packet the pools allocated
// is back on the client partition's free list, the server partition's
// stays empty, and a second identical burst draws every packet from the
// client's list and allocates none. A packet released unrouted returns to
// the partition that handed it out.
func TestShardedPacketPoolReuse(t *testing.T) {
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewDefaultConfig()
	set, err := sim.NewShardSet(ft.PodPartitions(), 1, cfg.LinkLatency)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(set, ft, cfg, func(_ uint16, _ *sim.Engine) (Selector, error) {
		return &spySelector{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	hosts := ft.Hosts()
	client := hosts[0]
	server := hosts[len(hosts)-1]
	clientPart := net.PartitionOf(client)
	serverPart := net.PartitionOf(server)
	if clientPart == serverPart {
		t.Fatalf("client and server share partition %d; the flow must cross the exchange", clientPart)
	}
	coreOp, err := net.Operator(ft.Cores()[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range net.OperatorsSorted() {
		op.SetDatabases(
			func(rgid uint32) ([]int, error) { return []int{0}, nil },
			func(int) (topo.NodeID, error) { return server, nil },
		)
	}
	tor, err := ft.ToROfRack(0)
	if err != nil {
		t.Fatal(err)
	}
	torOp, err := net.Operator(tor)
	if err != nil {
		t.Fatal(err)
	}
	torOp.Rules().BindHost(client, 0)
	torOp.Rules().SetRSNode(0, coreOp.ID())

	delivered := 0
	if err := net.AttachHost(server, func(p *Packet) {
		if err := net.SendResponse(p, server); err != nil {
			t.Errorf("send response: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.AttachHost(client, func(p *Packet) {
		delivered++
		net.Release(p)
	}); err != nil {
		t.Fatal(err)
	}

	const requests = 16
	nextID := uint64(0)
	burst := func(round int) {
		t.Helper()
		clientEng := net.EngineOf(client)
		for i := 0; i < requests; i++ {
			clientEng.MustScheduleArg(sim.Time(i)*50*sim.Microsecond, func(any) {
				nextID++
				req := net.NewPacketIn(clientPart)
				req.ReqID = nextID
				req.RGID = 1
				req.Dst = topo.InvalidNode
				req.Backup = server
				if err := net.SendNetRSRequest(req, client); err != nil {
					t.Errorf("send request: %v", err)
				}
			}, nil)
		}
		if err := set.Run(sim.Second*sim.Time(round+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	allocated := func() int {
		n := 0
		for _, c := range net.counters {
			n += int(c.packets)
		}
		return n
	}

	burst(0)
	if delivered != requests {
		t.Fatalf("round 1 delivered %d, want %d", delivered, requests)
	}
	made := allocated()
	if made == 0 {
		t.Fatal("no packets allocated in round 1")
	}
	if n := len(net.pktFree[clientPart]); n != made || net.PacketsInUse() != 0 {
		t.Errorf("client partition holds %d of the %d packets allocated (%d in use); every packet must come back to it",
			n, made, net.PacketsInUse())
	}
	if n := len(net.pktFree[serverPart]); n != 0 {
		t.Errorf("server partition reclaimed %d packets; requests must turn around there", n)
	}

	burst(1)
	if delivered != 2*requests {
		t.Fatalf("round 2 delivered %d total, want %d", delivered, 2*requests)
	}
	if n := allocated(); n != made {
		t.Errorf("round 2 allocated %d packets; it must reuse round 1's %d", n-made, made)
	}
	if n := len(net.pktFree[clientPart]); n != made {
		t.Errorf("client free list %d -> %d across identical bursts", made, n)
	}

	// A packet released before it is routed, its send withdrawn or
	// refused, goes back to the partition that handed it out.
	withdrawn := net.NewPacketIn(serverPart)
	net.Release(withdrawn)
	refused := net.NewPacketIn(serverPart)
	refused.Dst = topo.InvalidNode
	if err := net.SendDirect(refused, server); err == nil {
		t.Fatal("a send to no destination succeeded")
	}
	net.Release(refused)
	if n, m := len(net.pktFree[serverPart]), len(net.pktFree[clientPart]); n != 1 || m != made {
		t.Errorf("unrouted releases left %d packets in the server partition and %d in the client's, want 1 and %d",
			n, m, made)
	}
}

func TestShardedNetworkValidation(t *testing.T) {
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewDefaultConfig()
	factory := func(uint16, *sim.Engine) (Selector, error) { return &spySelector{}, nil }

	set, err := sim.NewShardSet(ft.PodPartitions()+1, 1, cfg.LinkLatency)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNetwork(set, ft, cfg, factory); !errors.Is(err, ErrInvalidParam) {
		t.Error("partition-count mismatch accepted")
	}

	set, err = sim.NewShardSet(ft.PodPartitions(), 1, cfg.LinkLatency+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNetwork(set, ft, cfg, factory); !errors.Is(err, ErrInvalidParam) {
		t.Error("lookahead exceeding link latency accepted")
	}
}
