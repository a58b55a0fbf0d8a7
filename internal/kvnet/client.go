package kvnet

import (
	"fmt"
	"net"
	"net/netip"
	"time"

	"netrs/internal/sim"
	"netrs/internal/wire"
)

// simTime converts a wall-clock duration to the simulated-time type the
// Selector interface speaks (both are nanoseconds).
func simTime(d time.Duration) sim.Time { return sim.Time(d) }

// Client is a synchronous NetRS KV client: each Get sends one request
// packet toward the NetRS operator and waits for the response. The client
// never names a server — it only carries the key's replica group ID, the
// in-network selector does the rest (§I's "keep things in network").
//
// Each Get stamps a fresh sequence number in its request's RV, which the
// operator writes back into the response. Get accepts only a datagram
// from the operator carrying that RV, so the late answer to a timed-out
// Get, or a datagram from any other socket, is discarded, not returned.
//
// A Client reuses its marshal and receive buffers across Gets and is
// therefore not safe for concurrent use; open one Client per goroutine.
// A Get allocates only its result's Value.
type Client struct {
	conn     *net.UDPConn
	operator netip.AddrPort
	timeout  time.Duration
	groupOf  func(key string) uint32
	seq      uint16 // RV of the latest Get's request

	out []byte // reusable request marshal buffer
	in  []byte // reusable receive buffer
}

// NewClient opens a client socket. groupOf maps keys to replica group IDs
// (the consistent-hashing view clients already have in Dynamo-style
// stores); timeout bounds each Get.
func NewClient(operator *net.UDPAddr, groupOf func(key string) uint32, timeout time.Duration) (*Client, error) {
	if operator == nil || groupOf == nil {
		return nil, fmt.Errorf("kvnet: nil operator address or group function")
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("client socket: %w", err)
	}
	return &Client{
		conn:     conn,
		operator: addrPortOf(operator),
		timeout:  timeout,
		groupOf:  groupOf,
		in:       make([]byte, maxPacket),
	}, nil
}

// Close releases the client socket.
func (c *Client) Close() error { return c.conn.Close() }

// GetResult carries a response's payload and piggybacked metadata.
type GetResult struct {
	// Value is the caller's own copy of the payload; the Client keeps no
	// reference to it.
	Value []byte
	// RID identifies the RSNode that selected the replica.
	RID uint16
	// Status is the server's piggybacked state.
	Status wire.Status
	// Source locates the serving rack.
	Source wire.SourceMarker
	// RTT is the observed round trip.
	RTT time.Duration
}

// Get reads one key through the in-network path. A missing key returns
// ErrNotFound, and no matching response within the timeout ErrTimeout.
func (c *Client) Get(key string) (GetResult, error) {
	c.seq++
	req := wire.Request{
		Magic:   wire.MagicRequest,
		RV:      c.seq,
		RGID:    c.groupOf(key) & 0xffffff,
		Payload: []byte(key),
	}
	buf, err := wire.AppendRequest(c.out[:0], req)
	if err != nil {
		return GetResult{}, err
	}
	c.out = buf
	start := time.Now()
	if _, err := c.conn.WriteToUDPAddrPort(buf, c.operator); err != nil {
		return GetResult{}, fmt.Errorf("send: %w", err)
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
		return GetResult{}, err
	}
	resp, err := c.await()
	if err != nil {
		return GetResult{}, fmt.Errorf("get %q: %w", key, err)
	}
	if len(resp.Payload) == 0 {
		return GetResult{}, fmt.Errorf("get %q: %w", key, ErrNotFound)
	}
	return GetResult{
		Value:  append([]byte(nil), resp.Payload...),
		RID:    resp.RID,
		Status: resp.Status,
		Source: resp.Source,
		RTT:    time.Since(start),
	}, nil
}

// await reads until the response to the latest Get arrives: from the
// operator and carrying c.seq in its RV. Anything else is discarded. The
// response's Payload aliases the receive buffer.
func (c *Client) await() (wire.Response, error) {
	for {
		n, from, err := c.conn.ReadFromUDPAddrPort(c.in)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return wire.Response{}, ErrTimeout
			}
			return wire.Response{}, err
		}
		if from != c.operator {
			continue
		}
		resp, err := wire.UnmarshalResponse(c.in[:n])
		if err != nil {
			return wire.Response{}, err
		}
		if resp.RV == c.seq {
			return resp, nil
		}
	}
}
