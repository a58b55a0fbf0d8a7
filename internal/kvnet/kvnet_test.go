package kvnet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"netrs/internal/c3"
	"netrs/internal/selection"
	"netrs/internal/wire"
)

// deployCluster spins up n replica servers, one operator running sel (nil:
// the default selector), and a client on loopback, with every key in
// replica group 1 served by all servers.
func deployCluster(t testing.TB, n int, delays []time.Duration, sel selection.Selector) (*Operator, *Client, []*Server) {
	t.Helper()
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		var delay time.Duration
		if i < len(delays) {
			delay = delays[i]
		}
		store := NewStore()
		srv, err := NewServer("127.0.0.1:0", ServerConfig{
			Workers:         2,
			ProcessingDelay: delay,
			Pod:             uint16(i / 2),
			Rack:            uint16(i),
		}, store)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		t.Cleanup(func() { _ = srv.Close() })
	}

	op, err := NewOperator("127.0.0.1:0", OperatorConfig{ID: 7, Selector: sel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = op.Close() })
	ids := make([]int, n)
	for i, srv := range servers {
		ids[i] = i
		if err := op.RegisterServer(i, srv.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	if err := op.RegisterGroup(1, ids); err != nil {
		t.Fatal(err)
	}

	cli, err := NewClient(op.Addr(), func(string) uint32 { return 1 }, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	return op, cli, servers
}

func TestEndToEndGet(t *testing.T) {
	_, cli, servers := deployCluster(t, 3, nil, nil)
	for _, srv := range servers {
		srv.Store().Set("alpha", []byte("beta"))
	}
	res, err := cli.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value) != "beta" {
		t.Fatalf("value = %q", res.Value)
	}
	if res.RID != 7 {
		t.Fatalf("RID = %d, want the operator's 7", res.RID)
	}
	if res.RTT <= 0 {
		t.Fatal("no RTT measured")
	}
}

func TestMissReturnsNotFound(t *testing.T) {
	_, cli, _ := deployCluster(t, 2, nil, nil)
	if _, err := cli.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestSelectionAvoidsSlowReplica(t *testing.T) {
	// Server 0 is 30 ms slow; 1 and 2 are fast. After warmup, the
	// least-outstanding selector should route most traffic to the fast
	// replicas.
	_, cli, servers := deployCluster(t, 3, []time.Duration{30 * time.Millisecond, 0, 0}, nil)
	for _, srv := range servers {
		srv.Store().Set("k", []byte("v"))
	}
	const total = 30
	for i := 0; i < total; i++ {
		if _, err := cli.Get("k"); err != nil {
			t.Fatal(err)
		}
	}
	slow := servers[0].Served()
	fast := servers[1].Served() + servers[2].Served()
	if slow+fast != total {
		t.Fatalf("served %d + %d, want %d total", slow, fast, total)
	}
	if fast <= slow {
		t.Fatalf("fast replicas served %d vs slow %d; selection ineffective", fast, slow)
	}
}

func TestOperatorStatsAndMagicFlow(t *testing.T) {
	op, cli, servers := deployCluster(t, 2, nil, nil)
	servers[0].Store().Set("x", []byte("1"))
	servers[1].Store().Set("x", []byte("1"))
	const total = 5
	for i := 0; i < total; i++ {
		res, err := cli.Get("x")
		if err != nil {
			t.Fatal(err)
		}
		// The client-facing magic must be Mmon: the response already
		// passed its RSNode.
		if res.Status.ServiceTimeUs < 0 {
			t.Fatal("negative service estimate")
		}
	}
	selections, responses, dropped := op.Stats()
	if selections != total || responses != total {
		t.Fatalf("operator stats: %d selections, %d responses", selections, responses)
	}
	if dropped != 0 {
		t.Fatalf("operator dropped %d packets", dropped)
	}
}

func TestClientSeesMonitorMagic(t *testing.T) {
	// Drive the wire by hand to assert the delivered magic field.
	op, _, servers := deployCluster(t, 1, nil, nil)
	servers[0].Store().Set("k", []byte("v"))
	cli, err := NewClient(op.Addr(), func(string) uint32 { return 1 }, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	req, err := wire.AppendRequest(nil, wire.Request{Magic: wire.MagicRequest, RGID: 1, Payload: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.conn.WriteToUDP(req, op.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := cli.conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, maxPacket)
	n, _, err := cli.conn.ReadFromUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	magic, err := wire.PeekMagic(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if wire.Classify(magic) != wire.KindMonitor {
		t.Fatalf("delivered magic %x classifies as %v, want monitor", uint64(magic), wire.Classify(magic))
	}
}

func TestServerStatusPiggyback(t *testing.T) {
	_, cli, servers := deployCluster(t, 1, []time.Duration{2 * time.Millisecond}, nil)
	servers[0].Store().Set("k", []byte("v"))
	var last GetResult
	for i := 0; i < 5; i++ {
		res, err := cli.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		last = res
	}
	if last.Status.ServiceTimeUs < 1000 {
		t.Fatalf("service estimate %vµs, want ≥ the 2ms delay", last.Status.ServiceTimeUs)
	}
	if last.Source.Rack != 0 {
		t.Fatalf("source marker rack = %d", last.Source.Rack)
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get("a"); ok {
		t.Fatal("empty store hit")
	}
	s.Set("a", []byte("1"))
	v, ok := s.Get("a")
	if !ok || string(v) != "1" {
		t.Fatalf("get = %q, %v", v, ok)
	}
	v[0] = 'X' // must not corrupt the store
	v2, _ := s.Get("a")
	if string(v2) != "1" {
		t.Fatal("store aliases returned slices")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestOperatorValidation(t *testing.T) {
	if _, err := NewOperator("127.0.0.1:0", OperatorConfig{ID: 0}); err == nil {
		t.Fatal("zero operator ID accepted")
	}
	if _, err := NewOperator("127.0.0.1:0", OperatorConfig{ID: wire.DegradedRID}); err == nil {
		t.Fatal("degraded operator ID accepted")
	}
	if _, err := NewClient(nil, func(string) uint32 { return 0 }, time.Second); err == nil {
		t.Fatal("nil operator address accepted")
	}
}

func TestGetTimeoutWhenGroupUnknown(t *testing.T) {
	op, err := NewOperator("127.0.0.1:0", OperatorConfig{ID: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	cli, err := NewClient(op.Addr(), func(string) uint32 { return 42 }, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Get("k"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout (operator drops unknown RGID)", err)
	}
	_, _, dropped := op.Stats()
	if dropped == 0 {
		t.Fatal("drop not counted")
	}
}

func TestCloseIdempotent(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second close errored")
	}
	op, err := NewOperator("127.0.0.1:0", OperatorConfig{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if err := op.Close(); err != nil {
		t.Fatal("second operator close errored")
	}
}

func TestConcurrentClients(t *testing.T) {
	_, _, servers := deployCluster(t, 3, nil, nil)
	op := serversOperator(t, servers)
	for _, srv := range servers {
		for i := 0; i < 20; i++ {
			srv.Store().Set(fmt.Sprintf("k%d", i), []byte("v"))
		}
	}
	const clients = 8
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			cli, err := NewClient(op.Addr(), func(string) uint32 { return 1 }, 2*time.Second)
			if err != nil {
				errCh <- err
				return
			}
			defer cli.Close()
			for i := 0; i < 20; i++ {
				if _, err := cli.Get(fmt.Sprintf("k%d", i)); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

func TestC3SelectorOverRealNetwork(t *testing.T) {
	// The full C3 algorithm (wall-clock rate control included) driving
	// the UDP operator: the slow replica must receive a minority of the
	// traffic.
	sel, err := NewC3Selector(c3.NewDefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, cli, servers := deployCluster(t, 3, []time.Duration{25 * time.Millisecond}, sel)
	for _, srv := range servers {
		srv.Store().Set("k", []byte("v"))
	}
	const total = 30
	for i := 0; i < total; i++ {
		if _, err := cli.Get("k"); err != nil {
			t.Fatal(err)
		}
	}
	slow := servers[0].Served()
	fast := servers[1].Served() + servers[2].Served()
	if fast <= slow {
		t.Fatalf("C3 sent %d to the slow replica vs %d to fast ones", slow, fast)
	}
}

// TestRegisterRejectsOutOfRangeServerIDs: server IDs index the selector's
// dense per-server tables, so the operator refuses one outside
// [0, c3.MaxServers) at registration instead of silently dropping every
// request for its group at pick time.
func TestRegisterRejectsOutOfRangeServerIDs(t *testing.T) {
	op, err := NewOperator("127.0.0.1:0", OperatorConfig{ID: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = op.Close() })
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	for _, bad := range []int{-1, c3.MaxServers, 1 << 40} {
		if err := op.RegisterServer(bad, addr); !errors.Is(err, ErrInvalidServer) {
			t.Errorf("RegisterServer(%d) err = %v, want ErrInvalidServer", bad, err)
		}
		if err := op.RegisterGroup(1, []int{0, bad, 1}); !errors.Is(err, ErrInvalidServer) {
			t.Errorf("RegisterGroup with %d err = %v, want ErrInvalidServer", bad, err)
		}
	}
	if err := op.RegisterServer(0, addr); err != nil {
		t.Errorf("RegisterServer(0): %v", err)
	}
	if err := op.RegisterServer(c3.MaxServers-1, addr); err != nil {
		t.Errorf("RegisterServer(MaxServers-1): %v", err)
	}
	if err := op.RegisterGroup(1, []int{0, c3.MaxServers - 1}); err != nil {
		t.Errorf("RegisterGroup(1, [0, MaxServers-1]): %v", err)
	}
	op.mu.Lock()
	defer op.mu.Unlock()
	if len(op.servers) != 2 || len(op.replicas[1]) != 2 {
		t.Errorf("rejected registrations stored: servers %v, group %v", op.servers, op.replicas[1])
	}
}

func TestNewC3SelectorValidation(t *testing.T) {
	bad := c3.NewDefaultConfig()
	bad.Alpha = 0
	if _, err := NewC3Selector(bad); err == nil {
		t.Fatal("invalid c3 config accepted")
	}
}

// serversOperator builds a fresh operator over existing servers.
func serversOperator(t *testing.T, servers []*Server) *Operator {
	t.Helper()
	op, err := NewOperator("127.0.0.1:0", OperatorConfig{ID: 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = op.Close() })
	ids := make([]int, len(servers))
	for i, srv := range servers {
		ids[i] = i
		if err := op.RegisterServer(i, srv.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	if err := op.RegisterGroup(1, ids); err != nil {
		t.Fatal(err)
	}
	return op
}

// TestLateResponseNotReturnedToNextGet: the answer to a timed-out Get
// reaches the client while its next Get is waiting. The operator writes
// each request's RV back into its response, so the next Get recognises
// the late answer as not its own and keeps waiting for its value.
func TestLateResponseNotReturnedToNextGet(t *testing.T) {
	_, cli, servers := deployCluster(t, 1, []time.Duration{150 * time.Millisecond}, nil)
	servers[0].Store().Set("a", []byte("A"))
	servers[0].Store().Set("b", []byte("B"))
	cli.timeout = 100 * time.Millisecond
	if _, err := cli.Get("a"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Get(a) err = %v, want ErrTimeout", err)
	}
	cli.timeout = 2 * time.Second
	res, err := cli.Get("b")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value) != "B" {
		t.Fatalf("Get(b) = %q, want %q", res.Value, "B")
	}
}

// TestGetIgnoresForeignDatagrams: a well-formed response with the right RV
// that did not come from the operator is not an answer.
func TestGetIgnoresForeignDatagrams(t *testing.T) {
	_, cli, servers := deployCluster(t, 1, nil, nil)
	servers[0].Store().Set("k", []byte("real"))
	forger, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer forger.Close()
	forged, err := wire.AppendResponse(nil, wire.Response{
		RID: 7, Magic: wire.MagicMonitor, RV: cli.seq + 1, Payload: []byte("forged"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Queued before the Get, so it is the first datagram the Get reads.
	if _, err := forger.WriteToUDP(forged, cli.conn.LocalAddr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
	res, err := cli.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value) != "real" {
		t.Fatalf("Get = %q, want %q", res.Value, "real")
	}
}

// TestMappedIPv4Addresses: net.IPv4 and net.ResolveUDPAddr give the
// 16-byte form of an IPv4 address, which an AF_INET socket refuses unless
// the operator and client unmap it; an empty IP means this host.
func TestMappedIPv4Addresses(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	srv.Store().Set("k", []byte("v"))
	op, err := NewOperator("127.0.0.1:0", OperatorConfig{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = op.Close() })
	if err := op.RegisterServer(0, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: srv.Addr().Port}); err != nil {
		t.Fatal(err)
	}
	if err := op.RegisterGroup(1, []int{0}); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []*net.UDPAddr{
		{IP: net.IPv4(127, 0, 0, 1), Port: op.Addr().Port},
		{Port: op.Addr().Port},
	} {
		cli, err := NewClient(addr, func(string) uint32 { return 1 }, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cli.Get("k")
		_ = cli.Close()
		if err != nil {
			t.Fatalf("operator %v: %v", addr, err)
		}
		if string(res.Value) != "v" {
			t.Fatalf("operator %v: Get = %q", addr, res.Value)
		}
	}
}

// deployC3 is deployCluster with a real-time C3 operator over n servers, each
// holding key "k" with a 64-byte value.
func deployC3(tb testing.TB, n int) *Client {
	tb.Helper()
	sel, err := NewC3Selector(c3.NewDefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	_, cli, servers := deployCluster(tb, n, nil, sel)
	for _, srv := range servers {
		srv.Store().Set("k", bytes.Repeat([]byte{'v'}, 64))
	}
	return cli
}

// TestGetAllocs: across the client, the operator and the server, a Get
// allocates only the caller-owned GetResult.Value.
func TestGetAllocs(t *testing.T) {
	cli := deployC3(t, 3)
	failed := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := cli.Get("k"); err != nil {
			failed++
		}
	})
	if failed > 0 {
		t.Fatalf("%d Gets failed", failed)
	}
	if allocs > 1 {
		t.Fatalf("Get made %v allocations, want ≤ 1", allocs)
	}
}

// TestStoreSetDuringServe: the server reads stored values in place while
// Set replaces them. The writer reuses one buffer, so a Set that kept the
// caller's slice, or wrote into a stored one, would be torn here (and
// flagged under -race).
func TestStoreSetDuringServe(t *testing.T) {
	_, cli, servers := deployCluster(t, 3, nil, nil)
	const size, letters = 64, 8
	for _, srv := range servers {
		srv.Store().Set("k", bytes.Repeat([]byte{'a'}, size))
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, size)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for j := range buf {
				buf[j] = byte('a' + i%letters)
			}
			for _, srv := range servers {
				srv.Store().Set("k", buf)
			}
		}
	}()
	t.Cleanup(func() { close(stop); <-done })
	for i := 0; i < 200; i++ {
		res, err := cli.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		v := res.Value
		if len(v) != size || v[0] < 'a' || v[0] >= 'a'+letters || !bytes.Equal(v, bytes.Repeat(v[:1], size)) {
			t.Fatalf("Get %d returned %q, not a value written", i, v)
		}
	}
}

// BenchmarkGet measures one Get through a C3 operator and three servers
// on loopback.
func BenchmarkGet(b *testing.B) {
	cli := deployC3(b, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Get("k"); err != nil {
			b.Fatal(err)
		}
	}
}
