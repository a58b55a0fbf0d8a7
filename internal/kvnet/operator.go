package kvnet

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"netrs/internal/c3"
	"netrs/internal/kv"
	"netrs/internal/selection"
	"netrs/internal/wire"
)

// OperatorConfig tunes a software NetRS operator.
type OperatorConfig struct {
	// ID is the operator's RSNode ID (positive, not DegradedRID).
	ID uint16
	// Selector picks replicas; nil defaults to the latency-learning
	// dynamic snitch, which needs no simulated clock. (C3's cubic rate
	// control is bound to the discrete-event clock, so the simulation
	// uses it; real-network deployments plug in any Selector.)
	Selector selection.Selector
}

// Operator is a user-space NetRS operator: a UDP middlebox that receives
// NetRS requests, runs replica selection, rewrites the packet (RID, RV,
// magic = f(Mresp)) and forwards it to the chosen server; responses flow
// back through it, where it restores the client address from the RV slot,
// folds the piggybacked status into its selector state, writes back the RV
// the client's request carried, relabels the magic Mmon, and forwards to
// the client — the exact pipeline of §IV-B/§IV-C realized with NAT-style
// RV bookkeeping instead of switch forwarding. Like a switch pipeline, it
// rewrites packets in place and allocates nothing per packet.
type Operator struct {
	cfg  OperatorConfig
	conn *net.UDPConn

	mu       sync.Mutex
	sel      selection.Selector
	replicas map[uint32][]int // RGID → server ids
	servers  map[int]netip.AddrPort
	pending  map[uint16]pendingSlot
	nextRV   uint16

	selections uint64
	responses  uint64
	dropped    uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// pendingSlot is one in-flight request, keyed by the RV the operator
// stamped on it: where the response goes back to, and the RV to restore.
type pendingSlot struct {
	client   netip.AddrPort
	clientRV uint16
	server   int
	sentAt   time.Time
}

// NewOperator starts an operator on addr.
func NewOperator(addr string, cfg OperatorConfig) (*Operator, error) {
	if cfg.ID == 0 || cfg.ID == wire.DegradedRID {
		return nil, fmt.Errorf("operator id %d invalid", cfg.ID)
	}
	if cfg.Selector == nil {
		snitch, err := selection.NewDynamicSnitch()
		if err != nil {
			return nil, err
		}
		cfg.Selector = snitch
	}
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("listen %q: %w", addr, err)
	}
	o := &Operator{
		cfg:      cfg,
		conn:     conn,
		sel:      cfg.Selector,
		replicas: make(map[uint32][]int),
		servers:  make(map[int]netip.AddrPort),
		pending:  make(map[uint16]pendingSlot),
		stop:     make(chan struct{}),
	}
	o.wg.Add(1)
	go o.loop()
	return o, nil
}

// Addr returns the operator's bound address.
func (o *Operator) Addr() *net.UDPAddr {
	addr, _ := o.conn.LocalAddr().(*net.UDPAddr)
	return addr
}

// validServer reports whether a server ID fits the selector's dense
// per-server tables: C3 refuses any ID outside [0, c3.MaxServers), and a
// group naming one would have every request for it dropped at Pick.
func validServer(id int) bool { return id >= 0 && id < c3.MaxServers }

// RegisterServer binds a server ID to its address. An ID outside
// [0, c3.MaxServers) is rejected.
func (o *Operator) RegisterServer(id int, addr *net.UDPAddr) error {
	if !validServer(id) {
		return fmt.Errorf("server id %d: %w", id, ErrInvalidServer)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.servers[id] = addrPortOf(addr)
	return nil
}

// RegisterGroup installs a replica group in the selector's local database
// (§IV-A's RGID lookup). A group naming a server ID outside
// [0, c3.MaxServers) is rejected whole.
func (o *Operator) RegisterGroup(rgid uint32, servers []int) error {
	for _, id := range servers {
		if !validServer(id) {
			return fmt.Errorf("group %d: server id %d: %w", rgid, id, ErrInvalidServer)
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.replicas[rgid] = append([]int(nil), servers...)
	return nil
}

// Stats reports (selections, responses seen, drops).
func (o *Operator) Stats() (uint64, uint64, uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.selections, o.responses, o.dropped
}

// Close stops the operator.
func (o *Operator) Close() error {
	select {
	case <-o.stop:
		return nil
	default:
	}
	close(o.stop)
	err := o.conn.Close()
	o.wg.Wait()
	return err
}

func (o *Operator) loop() {
	defer o.wg.Done()
	buf := make([]byte, maxPacket)
	var out []byte // loop-owned forward marshal buffer
	for {
		n, from, err := o.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		// handle processes the datagram synchronously on this goroutine, so
		// it can borrow the receive buffer directly — no per-packet copy.
		out = o.handle(buf[:n], from, out)
	}
}

// handle dispatches one datagram. pkt aliases the loop's receive buffer and
// must not be retained; out is the loop's reusable marshal buffer, returned
// (possibly grown) for the next datagram.
func (o *Operator) handle(pkt []byte, from netip.AddrPort, out []byte) []byte {
	magic, err := wire.PeekMagic(pkt)
	if err != nil {
		o.drop()
		return out
	}
	switch wire.Classify(magic) {
	case wire.KindRequest:
		return o.handleRequest(pkt, from, out)
	case wire.KindResponse:
		o.handleResponse(pkt)
	default:
		o.drop()
	}
	return out
}

// handleRequest runs the NetRS selector on an incoming request (§IV-C).
func (o *Operator) handleRequest(pkt []byte, from netip.AddrPort, out []byte) []byte {
	req, err := wire.UnmarshalRequest(pkt)
	if err != nil {
		o.drop()
		return out
	}
	o.mu.Lock()
	candidates, ok := o.replicas[req.RGID]
	if !ok || len(candidates) == 0 {
		o.mu.Unlock()
		o.drop()
		return out
	}
	server, _, err := o.sel.Pick(candidates)
	if err != nil {
		o.mu.Unlock()
		o.drop()
		return out
	}
	target, ok := o.servers[server]
	if !ok {
		o.mu.Unlock()
		o.drop()
		return out
	}
	rv := o.allocSlot(from, req.RV, server)
	o.selections++
	o.mu.Unlock()

	// Rebuild the packet: our RID, the RV slot, the selected-request
	// magic f(Mresp).
	fwd, err := wire.AppendRequest(out[:0], wire.Request{
		RID:     o.cfg.ID,
		Magic:   wire.Transform(wire.MagicResponse),
		RV:      rv,
		RGID:    req.RGID,
		Payload: req.Payload,
	})
	if err != nil {
		o.drop()
		return out
	}
	if _, err := o.conn.WriteToUDPAddrPort(fwd, target); err != nil {
		o.drop()
	}
	return fwd
}

// allocSlot reserves an RV slot for an in-flight request. Callers hold
// o.mu.
func (o *Operator) allocSlot(client netip.AddrPort, clientRV uint16, server int) uint16 {
	for i := 0; i < 1<<16; i++ {
		o.nextRV++
		if _, busy := o.pending[o.nextRV]; !busy {
			break
		}
	}
	rv := o.nextRV
	o.pending[rv] = pendingSlot{client: client, clientRV: clientRV, server: server, sentAt: time.Now()}
	return rv
}

// handleResponse restores the client and its RV, updates selector state,
// and forwards with the Mmon magic.
func (o *Operator) handleResponse(pkt []byte) {
	resp, err := wire.UnmarshalResponse(pkt)
	if err != nil {
		o.drop()
		return
	}
	o.mu.Lock()
	slot, ok := o.pending[resp.RV]
	if !ok {
		o.mu.Unlock()
		o.drop()
		return
	}
	delete(o.pending, resp.RV)
	latency := time.Since(slot.sentAt)
	o.sel.OnResponse(slot.server, simTime(latency), kv.Status{
		QueueSize:     int(resp.Status.QueueSize),
		ServiceTimeNs: float64(resp.Status.ServiceTimeUs) * 1000,
	})
	o.responses++
	o.mu.Unlock()

	// pkt parsed above, so it holds the whole header: neither rewrite can
	// fail.
	_ = wire.SetRV(pkt, slot.clientRV)
	_ = wire.SetMagic(pkt, wire.MagicMonitor)
	if _, err := o.conn.WriteToUDPAddrPort(pkt, slot.client); err != nil {
		o.drop()
	}
}

func (o *Operator) drop() {
	o.mu.Lock()
	o.dropped++
	o.mu.Unlock()
}
