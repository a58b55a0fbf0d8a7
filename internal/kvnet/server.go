// Package kvnet is a real-network implementation of the NetRS protocol:
// a UDP key-value server that piggybacks its status in responses, a
// software NetRS operator that performs in-network replica selection as a
// UDP middlebox, and a small synchronous client. It exercises the exact
// wire format of §IV-A (package wire) end to end over the loopback
// interface — the closest runnable stand-in for the programmable-switch
// data plane the paper targets.
package kvnet

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"netrs/internal/wire"
)

// floatBits and floatOf store float64s in atomics.
func floatBits(f float64) uint64 { return math.Float64bits(f) }
func floatOf(b uint64) float64   { return math.Float64frombits(b) }

// Errors returned by kvnet components.
var (
	ErrClosed   = errors.New("kvnet: closed")
	ErrTimeout  = errors.New("kvnet: timeout")
	ErrNotFound = errors.New("kvnet: key not found")
	// ErrInvalidServer rejects a server ID the operator cannot register:
	// one outside [0, c3.MaxServers).
	ErrInvalidServer = errors.New("kvnet: invalid server id")
)

// maxPacket bounds UDP datagrams; NetRS packets are small (§I: ~1 KB
// values).
const maxPacket = 64 * 1024

// addrPortOf converts an address from the exported API, once, into the
// by-value form the datapath sends to. Unmap turns the 16-byte IPv4 form
// that net.IPv4 and net.ResolveUDPAddr produce into the 4-byte form an
// AF_INET socket accepts. An empty or 0.0.0.0 IP means this host, as a
// UDPConn write treats it; it becomes 127.0.0.1, so the address compares
// equal to the source of the replies it sends.
func addrPortOf(a *net.UDPAddr) netip.AddrPort {
	ap := a.AddrPort()
	ip := ap.Addr().Unmap()
	if !ip.IsValid() || ip == netip.IPv4Unspecified() {
		ip = netip.AddrFrom4([4]byte{127, 0, 0, 1})
	}
	return netip.AddrPortFrom(ip, ap.Port())
}

// Store is the server's in-memory key-value state.
type Store struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{m: make(map[string][]byte)} }

// Set writes a copy of value. It always stores a fresh slice and never
// writes into one already stored, so a slice handed out by lookup stays
// whole and unchanged after its lock is released; the server reads values
// in place on that invariant.
func (s *Store) Set(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), value...)
}

// Get reads a copy of a value; ok reports presence.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// lookup returns the stored slice itself (nil on a miss), without copying
// it and without converting key to a string on the heap. The caller must
// not write into it (see Set).
func (s *Store) lookup(key []byte) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[string(key)]
}

// Len returns the number of keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// ServerConfig tunes a UDP KV server.
type ServerConfig struct {
	// Workers is the service parallelism (the paper's Np).
	Workers int
	// ProcessingDelay is an artificial per-request service time, letting
	// demos exhibit slow and fast replicas.
	ProcessingDelay time.Duration
	// Pod and Rack are the server's claimed network location, stamped
	// into the response source marker.
	Pod, Rack uint16
}

// Server is a UDP key-value server speaking the NetRS wire format. It
// answers requests whose payload is the key, piggybacking its queue size
// and service-time EWMA, and sets the response magic to f⁻¹ of the request
// magic (§IV-C).
type Server struct {
	cfg   ServerConfig
	conn  *net.UDPConn
	store *Store

	queue   chan inbound
	inQueue atomic.Int64
	busy    atomic.Int64
	svcEWMA atomic.Uint64 // microseconds, float64 bits

	served atomic.Uint64

	// bufPool recycles inbound datagram buffers between the read loop and
	// the workers, so steady-state receive performs no per-packet
	// allocation.
	bufPool sync.Pool

	stop chan struct{}
	wg   sync.WaitGroup
}

type inbound struct {
	buf  *[]byte
	from netip.AddrPort
}

// NewServer starts a server on addr ("127.0.0.1:0" for an ephemeral port).
func NewServer(addr string, cfg ServerConfig, store *Store) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if store == nil {
		store = NewStore()
	}
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("listen %q: %w", addr, err)
	}
	s := &Server{
		cfg:   cfg,
		conn:  conn,
		store: store,
		queue: make(chan inbound, 1024),
		stop:  make(chan struct{}),
	}
	s.bufPool.New = func() any {
		b := make([]byte, 0, 2048)
		return &b
	}
	s.svcEWMA.Store(floatBits(float64(cfg.ProcessingDelay) / float64(time.Microsecond)))
	s.wg.Add(1)
	go s.readLoop()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Addr returns the server's bound UDP address.
func (s *Server) Addr() *net.UDPAddr {
	addr, _ := s.conn.LocalAddr().(*net.UDPAddr)
	return addr
}

// Store exposes the backing store (for pre-population).
func (s *Server) Store() *Store { return s.store }

// Served returns the number of requests answered.
func (s *Server) Served() uint64 { return s.served.Load() }

// Close stops the server and waits for its goroutines.
func (s *Server) Close() error {
	select {
	case <-s.stop:
		return nil // already closed
	default:
	}
	close(s.stop)
	err := s.conn.Close()
	s.wg.Wait()
	return err
}

func (s *Server) readLoop() {
	defer s.wg.Done()
	buf := make([]byte, maxPacket)
	for {
		n, from, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // closed
		}
		bp := s.bufPool.Get().(*[]byte)
		*bp = append((*bp)[:0], buf[:n]...)
		s.inQueue.Add(1)
		select {
		case s.queue <- inbound{buf: bp, from: from}:
		case <-s.stop:
			return
		}
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	var out []byte // worker-owned response marshal buffer
	for {
		select {
		case in := <-s.queue:
			s.inQueue.Add(-1)
			s.busy.Add(1)
			out = s.handle(in, out)
			s.bufPool.Put(in.buf)
			s.busy.Add(-1)
		case <-s.stop:
			return
		}
	}
}

// QueueSize mirrors the simulated server's definition: waiting plus
// executing requests.
func (s *Server) QueueSize() int {
	return int(s.inQueue.Load() + s.busy.Load())
}

// handle services one request, reusing out as the response marshal buffer;
// it returns the (possibly grown) buffer for the next request.
func (s *Server) handle(in inbound, out []byte) []byte {
	start := time.Now()
	req, err := wire.UnmarshalRequest(*in.buf)
	if err != nil {
		return out // not a NetRS request; drop
	}
	if s.cfg.ProcessingDelay > 0 {
		time.Sleep(s.cfg.ProcessingDelay)
	}
	payload := s.store.lookup(req.Payload) // nil: the empty payload signals a miss

	elapsedUs := float64(time.Since(start)) / float64(time.Microsecond)
	s.observeService(elapsedUs)

	resp := wire.Response{
		RID:    req.RID,
		Magic:  wire.InverseTransform(req.Magic),
		RV:     req.RV,
		Source: wire.SourceMarker{Pod: s.cfg.Pod, Rack: s.cfg.Rack},
		Status: wire.Status{
			QueueSize:     clampUint16(s.QueueSize()),
			ServiceTimeUs: float32(floatOf(s.svcEWMA.Load())),
		},
		Payload: payload,
	}
	buf, err := wire.AppendResponse(out[:0], resp)
	if err != nil {
		return out
	}
	// Count before sending: once the datagram is out, the client may act
	// on the response — and read this counter — before this goroutine is
	// scheduled again.
	s.served.Add(1)
	if _, err := s.conn.WriteToUDPAddrPort(buf, in.from); err != nil {
		s.served.Add(^uint64(0)) // the send failed; undo
	}
	return buf
}

// observeService folds a service time (µs) into the piggybacked EWMA with
// α = 0.9.
func (s *Server) observeService(us float64) {
	for {
		old := s.svcEWMA.Load()
		cur := floatOf(old)
		next := cur
		if cur == 0 {
			next = us
		} else {
			next = 0.9*us + 0.1*cur
		}
		if s.svcEWMA.CompareAndSwap(old, floatBits(next)) {
			return
		}
	}
}

func clampUint16(v int) uint16 {
	if v < 0 {
		return 0
	}
	if v > 0xffff {
		return 0xffff
	}
	return uint16(v)
}
