// Package wire implements the NetRS packet format of §IV-A (Fig. 2).
// NetRS messages ride in UDP payloads; requests and responses use separate
// layouts so each carries only what the in-network machinery needs:
//
//	request:  RID(2) MF(6) RV(2) RGID(3) payload…
//	response: RID(2) MF(6) RV(2) SM(4) SSL(2) SS(SSL) payload…
//
// RID is the RSNode ID, MF the magic field switches use to classify
// packets, RV a retaining value RSNodes may stamp on requests and servers
// echo on responses, RGID the replica-group ID the selector resolves to
// candidate servers, SM the source marker (pod, rack) monitors compare
// against their own location, and SS the piggybacked server status.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Errors returned by the codec.
var (
	ErrShortPacket = errors.New("wire: short packet")
	ErrBadMagic    = errors.New("wire: unrecognized magic field")
	ErrFieldRange  = errors.New("wire: field out of range")
)

// Magic is the 6-byte magic field as an integer (only the low 48 bits are
// meaningful).
type Magic uint64

// MaxMagic bounds the 48-bit magic space.
const MaxMagic Magic = 1<<48 - 1

// The protocol's magic constants. MagicMonitor labels a packet as
// non-NetRS for forwarding purposes while staying recognizable to NetRS
// monitors (§IV-B).
const (
	MagicRequest    Magic = 0x4e6574525351 // "NetRSQ"
	MagicResponse   Magic = 0x4e6574525350 // "NetRSP"
	MagicMonitor    Magic = 0x4e657452534d // "NetRS M"-ish tag
	MagicInvalidate Magic = 0x4e6574525349 // "NetRSI": cache invalidation
)

// magicMask is the XOR mask realizing the invertible transform f of
// §IV-B/§IV-C. XOR makes f self-inverse, so f(f(m)) = m.
const magicMask Magic = 0x5a5a5a5a5a5a

// Transform applies f to a magic value.
func Transform(m Magic) Magic { return (m ^ magicMask) & MaxMagic }

// InverseTransform applies f⁻¹ (identical to f for an XOR mask).
func InverseTransform(m Magic) Magic { return Transform(m) }

// Kind classifies a packet by magic field.
type Kind int

// Packet kinds seen by switches (Fig. 3).
const (
	KindNonNetRS Kind = iota + 1
	KindRequest
	KindResponse
	KindMonitor         // response already processed; monitor-visible only
	KindSelectedRequest // request rebuilt by a NetRS selector: f(Mresp)
	KindDegradedRequest // request with DRS enabled: f(Mmon)
	KindInvalidation    // hot-key cache invalidation after a write
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNonNetRS:
		return "non-netrs"
	case KindRequest:
		return "request"
	case KindResponse:
		return "response"
	case KindMonitor:
		return "monitor"
	case KindSelectedRequest:
		return "selected-request"
	case KindDegradedRequest:
		return "degraded-request"
	case KindInvalidation:
		return "invalidation"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Classify maps a magic field to its packet kind.
func Classify(m Magic) Kind {
	switch m {
	case MagicRequest:
		return KindRequest
	case MagicResponse:
		return KindResponse
	case MagicMonitor:
		return KindMonitor
	case Transform(MagicResponse):
		return KindSelectedRequest
	case Transform(MagicMonitor):
		return KindDegradedRequest
	case MagicInvalidate:
		return KindInvalidation
	default:
		return KindNonNetRS
	}
}

// DegradedRID is the illegal RSNode ID the controller assigns to traffic
// groups running under Degraded Replica Selection (§IV-B uses "-1";
// RSNode IDs are positive integers, so the all-ones pattern is never a
// real operator).
const DegradedRID uint16 = 0xffff

// SourceMarker locates the rack a response came from (§IV-A SM segment):
// the pod ID and the rack ID, each 16 bits.
type SourceMarker struct {
	Pod  uint16
	Rack uint16
}

// headerLen is the length of the segments shared by requests and
// responses: RID, MF, RV.
const headerLen = 2 + 6 + 2

// header is the common packet prefix.
type header struct {
	RID   uint16
	Magic Magic
	RV    uint16
}

func putHeader(buf []byte, h header) {
	binary.BigEndian.PutUint16(buf[0:2], h.RID)
	putUint48(buf[2:8], uint64(h.Magic))
	binary.BigEndian.PutUint16(buf[8:10], h.RV)
}

func parseHeader(buf []byte) (header, error) {
	if len(buf) < headerLen {
		return header{}, fmt.Errorf("header needs %d bytes, have %d: %w", headerLen, len(buf), ErrShortPacket)
	}
	return header{
		RID:   binary.BigEndian.Uint16(buf[0:2]),
		Magic: Magic(getUint48(buf[2:8])),
		RV:    binary.BigEndian.Uint16(buf[8:10]),
	}, nil
}

func putUint48(b []byte, v uint64) {
	b[0] = byte(v >> 40)
	b[1] = byte(v >> 32)
	b[2] = byte(v >> 24)
	b[3] = byte(v >> 16)
	b[4] = byte(v >> 8)
	b[5] = byte(v)
}

func getUint48(b []byte) uint64 {
	return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5])
}

// PeekMagic extracts the magic field without a full parse — what a
// switch's ingress pipeline does first (Fig. 3).
func PeekMagic(buf []byte) (Magic, error) {
	if len(buf) < headerLen {
		return 0, fmt.Errorf("peek needs %d bytes, have %d: %w", headerLen, len(buf), ErrShortPacket)
	}
	return Magic(getUint48(buf[2:8])), nil
}

// SetMagic rewrites the magic field in place.
func SetMagic(buf []byte, m Magic) error {
	if len(buf) < headerLen {
		return fmt.Errorf("set magic on %d bytes: %w", len(buf), ErrShortPacket)
	}
	if m > MaxMagic {
		return fmt.Errorf("magic %x exceeds 48 bits: %w", uint64(m), ErrFieldRange)
	}
	putUint48(buf[2:8], uint64(m))
	return nil
}

// SetRV rewrites the retaining value in place — what an operator does to a
// response before forwarding it, restoring the RV the request arrived with.
func SetRV(buf []byte, rv uint16) error {
	if len(buf) < headerLen {
		return fmt.Errorf("set RV on %d bytes: %w", len(buf), ErrShortPacket)
	}
	binary.BigEndian.PutUint16(buf[8:10], rv)
	return nil
}

// Request is a decoded NetRS read request.
type Request struct {
	// RID identifies the RSNode assigned to this request (DegradedRID for
	// DRS traffic).
	RID uint16
	// Magic is MagicRequest on the wire from the client, or
	// Transform(MagicResponse) after a selector rebuilt the packet.
	Magic Magic
	// RV is the retaining value; RSNodes may stamp it (e.g. with a send
	// timestamp) and servers echo it in the response.
	RV uint16
	// RGID is the 24-bit replica group ID.
	RGID uint32
	// Payload is the application content (key, etc.).
	Payload []byte
}

// requestFixedLen is the request layout length before the payload.
const requestFixedLen = headerLen + 3

// AppendRequest encodes a request packet, appending to dst (which may be
// nil, or a recycled buffer resliced to zero length) and returning the
// extended slice. Hot senders keep one buffer per connection and avoid a
// per-packet allocation.
func AppendRequest(dst []byte, r Request) ([]byte, error) {
	if r.Magic > MaxMagic {
		return nil, fmt.Errorf("request magic %x: %w", uint64(r.Magic), ErrFieldRange)
	}
	if r.RGID >= 1<<24 {
		return nil, fmt.Errorf("RGID %d exceeds 24 bits: %w", r.RGID, ErrFieldRange)
	}
	off := len(dst)
	dst = grow(dst, requestFixedLen+len(r.Payload))
	buf := dst[off:]
	putHeader(buf, header{RID: r.RID, Magic: r.Magic, RV: r.RV})
	buf[headerLen] = byte(r.RGID >> 16)
	buf[headerLen+1] = byte(r.RGID >> 8)
	buf[headerLen+2] = byte(r.RGID)
	copy(buf[requestFixedLen:], r.Payload)
	return dst, nil
}

// grow extends b by n bytes, reallocating only when capacity runs out.
func grow(b []byte, n int) []byte {
	if len(b)+n <= cap(b) {
		return b[:len(b)+n]
	}
	return append(b, make([]byte, n)...)
}

// UnmarshalRequest decodes a request packet. The returned Payload aliases
// buf (nil when the packet carries none): it is valid only while buf is,
// and a caller that keeps it past reusing buf must copy it.
func UnmarshalRequest(buf []byte) (Request, error) {
	h, err := parseHeader(buf)
	if err != nil {
		return Request{}, err
	}
	if len(buf) < requestFixedLen {
		return Request{}, fmt.Errorf("request needs %d bytes, have %d: %w", requestFixedLen, len(buf), ErrShortPacket)
	}
	r := Request{
		RID:   h.RID,
		Magic: h.Magic,
		RV:    h.RV,
		RGID:  uint32(buf[headerLen])<<16 | uint32(buf[headerLen+1])<<8 | uint32(buf[headerLen+2]),
	}
	if rest := buf[requestFixedLen:]; len(rest) > 0 {
		r.Payload = rest
	}
	return r, nil
}

// Status is the piggybacked server state carried in the SS segment: the
// queue size and the server's service-time estimate in microseconds.
type Status struct {
	QueueSize     uint16
	ServiceTimeUs float32
}

// statusLen is the encoded SS length for Status.
const statusLen = 2 + 4

// Response is a decoded NetRS read response.
type Response struct {
	RID    uint16
	Magic  Magic
	RV     uint16
	Source SourceMarker
	// Status is the piggybacked server state.
	Status Status
	// Payload is the application content (value bytes).
	Payload []byte
}

// responseFixedLen is the response layout length before SS and payload.
const responseFixedLen = headerLen + 4 + 2

// AppendResponse encodes a response packet, appending to dst (which may be
// nil, or a recycled buffer resliced to zero length) and returning the
// extended slice.
func AppendResponse(dst []byte, r Response) ([]byte, error) {
	if r.Magic > MaxMagic {
		return nil, fmt.Errorf("response magic %x: %w", uint64(r.Magic), ErrFieldRange)
	}
	if math.IsNaN(float64(r.Status.ServiceTimeUs)) || r.Status.ServiceTimeUs < 0 {
		return nil, fmt.Errorf("status service time %v: %w", r.Status.ServiceTimeUs, ErrFieldRange)
	}
	off := len(dst)
	dst = grow(dst, responseFixedLen+statusLen+len(r.Payload))
	buf := dst[off:]
	putHeader(buf, header{RID: r.RID, Magic: r.Magic, RV: r.RV})
	binary.BigEndian.PutUint16(buf[headerLen:], r.Source.Pod)
	binary.BigEndian.PutUint16(buf[headerLen+2:], r.Source.Rack)
	binary.BigEndian.PutUint16(buf[headerLen+4:], statusLen)
	binary.BigEndian.PutUint16(buf[responseFixedLen:], r.Status.QueueSize)
	binary.BigEndian.PutUint32(buf[responseFixedLen+2:], math.Float32bits(r.Status.ServiceTimeUs))
	copy(buf[responseFixedLen+statusLen:], r.Payload)
	return dst, nil
}

// UnmarshalResponse decodes a response packet. As with UnmarshalRequest,
// the returned Payload aliases buf (nil when empty).
func UnmarshalResponse(buf []byte) (Response, error) {
	h, err := parseHeader(buf)
	if err != nil {
		return Response{}, err
	}
	if len(buf) < responseFixedLen {
		return Response{}, fmt.Errorf("response needs %d bytes, have %d: %w", responseFixedLen, len(buf), ErrShortPacket)
	}
	r := Response{
		RID:   h.RID,
		Magic: h.Magic,
		RV:    h.RV,
		Source: SourceMarker{
			Pod:  binary.BigEndian.Uint16(buf[headerLen:]),
			Rack: binary.BigEndian.Uint16(buf[headerLen+2:]),
		},
	}
	ssl := int(binary.BigEndian.Uint16(buf[headerLen+4:]))
	if len(buf) < responseFixedLen+ssl {
		return Response{}, fmt.Errorf("SS claims %d bytes, %d remain: %w", ssl, len(buf)-responseFixedLen, ErrShortPacket)
	}
	if ssl >= statusLen {
		ss := buf[responseFixedLen:]
		r.Status.QueueSize = binary.BigEndian.Uint16(ss)
		r.Status.ServiceTimeUs = math.Float32frombits(binary.BigEndian.Uint32(ss[2:]))
	}
	if rest := buf[responseFixedLen+ssl:]; len(rest) > 0 {
		r.Payload = rest
	}
	return r, nil
}
