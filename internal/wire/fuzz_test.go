package wire

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalRequest hardens the request parser against arbitrary
// bytes: it must never panic, and anything it accepts must re-marshal to
// an equivalent packet.
func FuzzUnmarshalRequest(f *testing.F) {
	seed, _ := AppendRequest(nil, Request{
		RID: 7, Magic: MagicRequest, RV: 9, RGID: 0xABCDEF, Payload: []byte("key"),
	})
	f.Add(seed)
	f.Add([]byte{})
	f.Add(make([]byte, 12))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := UnmarshalRequest(data)
		if err != nil {
			return
		}
		out, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("accepted request does not re-marshal: %v", err)
		}
		again, err := UnmarshalRequest(out)
		if err != nil {
			t.Fatalf("re-marshaled request does not parse: %v", err)
		}
		if again.RID != req.RID || again.Magic != req.Magic || again.RV != req.RV ||
			again.RGID != req.RGID || !bytes.Equal(again.Payload, req.Payload) {
			t.Fatalf("lossy round trip: %+v vs %+v", req, again)
		}
	})
}

// FuzzRequestRoundTrip drives AppendRequest from arbitrary field values:
// every in-range request must encode (appended to a dirty, nonempty dst —
// the recycled-buffer hot path) and decode back to identical fields.
func FuzzRequestRoundTrip(f *testing.F) {
	f.Add(uint16(7), uint64(MagicRequest), uint16(9), uint32(0xABCDEF), []byte("key"))
	f.Add(uint16(0), uint64(0), uint16(0), uint32(0), []byte{})
	f.Add(DegradedRID, uint64(MaxMagic), uint16(0xffff), uint32(1<<24-1), bytes.Repeat([]byte{0x55}, 300))
	f.Fuzz(func(t *testing.T, rid uint16, magic uint64, rv uint16, rgid uint32, payload []byte) {
		req := Request{RID: rid, Magic: Magic(magic % (uint64(MaxMagic) + 1)), RV: rv,
			RGID: rgid % (1 << 24), Payload: payload}
		prefix := []byte{0xde, 0xad, 0xbe, 0xef}
		dst, err := AppendRequest(append([]byte(nil), prefix...), req)
		if err != nil {
			t.Fatalf("in-range request rejected: %v", err)
		}
		if !bytes.Equal(dst[:len(prefix)], prefix) {
			t.Fatalf("append clobbered dst prefix: %x", dst[:len(prefix)])
		}
		got, err := UnmarshalRequest(dst[len(prefix):])
		if err != nil {
			t.Fatalf("encoded request does not parse: %v", err)
		}
		if got.RID != req.RID || got.Magic != req.Magic || got.RV != req.RV ||
			got.RGID != req.RGID || !bytes.Equal(got.Payload, req.Payload) {
			t.Fatalf("lossy round trip: %+v vs %+v", req, got)
		}
	})
}

// FuzzResponseRoundTrip drives AppendResponse from arbitrary field values,
// covering the source marker and the piggybacked SS status segment.
func FuzzResponseRoundTrip(f *testing.F) {
	f.Add(uint16(1), uint64(MagicResponse), uint16(2), uint16(3), uint16(4),
		uint16(5), float32(6.5), []byte("value"))
	f.Add(uint16(0), uint64(0), uint16(0), uint16(0), uint16(0),
		uint16(0), float32(0), []byte{})
	f.Fuzz(func(t *testing.T, rid uint16, magic uint64, rv uint16, pod, rack uint16,
		queue uint16, serviceUs float32, payload []byte) {
		if serviceUs != serviceUs || serviceUs < 0 {
			// AppendResponse rejects NaN/negative service times by contract.
			return
		}
		resp := Response{RID: rid, Magic: Magic(magic % (uint64(MaxMagic) + 1)), RV: rv,
			Source:  SourceMarker{Pod: pod, Rack: rack},
			Status:  Status{QueueSize: queue, ServiceTimeUs: serviceUs},
			Payload: payload}
		prefix := []byte{0x01, 0x02}
		dst, err := AppendResponse(append([]byte(nil), prefix...), resp)
		if err != nil {
			t.Fatalf("in-range response rejected: %v", err)
		}
		if !bytes.Equal(dst[:len(prefix)], prefix) {
			t.Fatalf("append clobbered dst prefix: %x", dst[:len(prefix)])
		}
		got, err := UnmarshalResponse(dst[len(prefix):])
		if err != nil {
			t.Fatalf("encoded response does not parse: %v", err)
		}
		if got.RID != resp.RID || got.Magic != resp.Magic || got.RV != resp.RV ||
			got.Source != resp.Source || got.Status != resp.Status ||
			!bytes.Equal(got.Payload, resp.Payload) {
			t.Fatalf("lossy round trip: %+v vs %+v", resp, got)
		}
	})
}

// FuzzUnmarshalResponse hardens the response parser, including its
// variable-length SS segment.
func FuzzUnmarshalResponse(f *testing.F) {
	seed, _ := AppendResponse(nil, Response{
		RID: 1, Magic: MagicResponse, RV: 2,
		Source:  SourceMarker{Pod: 3, Rack: 4},
		Status:  Status{QueueSize: 5, ServiceTimeUs: 6},
		Payload: []byte("value"),
	})
	f.Add(seed)
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	f.Add(bytes.Repeat([]byte{0xaa}, 128))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := UnmarshalResponse(data)
		if err != nil {
			return
		}
		// Responses with pathological status floats cannot re-marshal;
		// skip those, the parser tolerating them is fine.
		out, err := AppendResponse(nil, resp)
		if err != nil {
			return
		}
		again, err := UnmarshalResponse(out)
		if err != nil {
			t.Fatalf("re-marshaled response does not parse: %v", err)
		}
		if again.RID != resp.RID || again.Magic != resp.Magic || again.Source != resp.Source {
			t.Fatalf("lossy round trip: %+v vs %+v", resp, again)
		}
	})
}
