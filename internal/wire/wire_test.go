package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestMagicConstantsDistinct(t *testing.T) {
	seen := map[Magic]string{}
	for name, m := range map[string]Magic{
		"Mreq":     MagicRequest,
		"Mresp":    MagicResponse,
		"Mmon":     MagicMonitor,
		"Minv":     MagicInvalidate,
		"f(Mresp)": Transform(MagicResponse),
		"f(Mmon)":  Transform(MagicMonitor),
		"f(Minv)":  Transform(MagicInvalidate),
	} {
		if m > MaxMagic {
			t.Fatalf("%s exceeds 48 bits", name)
		}
		if prev, dup := seen[m]; dup {
			t.Fatalf("%s collides with %s", name, prev)
		}
		seen[m] = name
	}
}

func TestTransformInvertibleAndPaperConstraints(t *testing.T) {
	// §IV-C: f(Mresp) must differ from both Mreq and Mresp.
	fm := Transform(MagicResponse)
	if fm == MagicRequest || fm == MagicResponse {
		t.Fatal("f(Mresp) collides with protocol magics")
	}
	for _, m := range []Magic{MagicRequest, MagicResponse, MagicMonitor, 0, MaxMagic} {
		if InverseTransform(Transform(m)) != m {
			t.Fatalf("f⁻¹(f(%x)) != %x", uint64(m), uint64(m))
		}
	}
}

func TestClassify(t *testing.T) {
	cases := map[Magic]Kind{
		MagicRequest:             KindRequest,
		MagicResponse:            KindResponse,
		MagicMonitor:             KindMonitor,
		Transform(MagicResponse): KindSelectedRequest,
		Transform(MagicMonitor):  KindDegradedRequest,
		MagicInvalidate:          KindInvalidation,
		0x1234:                   KindNonNetRS,
	}
	for m, want := range cases {
		if got := Classify(m); got != want {
			t.Errorf("Classify(%x) = %v, want %v", uint64(m), got, want)
		}
	}
	for _, k := range []Kind{KindNonNetRS, KindRequest, KindResponse, KindMonitor, KindSelectedRequest, KindDegradedRequest, KindInvalidation, Kind(42)} {
		if k.String() == "" {
			t.Errorf("Kind(%d).String empty", int(k))
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	in := Request{
		RID:     7,
		Magic:   MagicRequest,
		RV:      0xBEEF,
		RGID:    0xABCDEF,
		Payload: []byte("GET key42"),
	}
	buf, err := AppendRequest(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.RID != in.RID || out.Magic != in.Magic || out.RV != in.RV || out.RGID != in.RGID {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	if !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("payload = %q", out.Payload)
	}
}

func TestRequestEmptyPayload(t *testing.T) {
	buf, err := AppendRequest(nil, Request{Magic: MagicRequest, RGID: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 13 { // RID 2 + MF 6 + RV 2 + RGID 3
		t.Fatalf("fixed request length = %d, want 13", len(buf))
	}
	out, err := UnmarshalRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Payload != nil {
		t.Fatalf("payload = %v, want nil", out.Payload)
	}
}

func TestRequestValidation(t *testing.T) {
	if _, err := AppendRequest(nil, Request{Magic: MaxMagic + 1}); !errors.Is(err, ErrFieldRange) {
		t.Fatal("oversized magic accepted")
	}
	if _, err := AppendRequest(nil, Request{Magic: MagicRequest, RGID: 1 << 24}); !errors.Is(err, ErrFieldRange) {
		t.Fatal("oversized RGID accepted")
	}
	if _, err := UnmarshalRequest([]byte{1, 2, 3}); !errors.Is(err, ErrShortPacket) {
		t.Fatal("short request accepted")
	}
	if _, err := UnmarshalRequest(make([]byte, 11)); !errors.Is(err, ErrShortPacket) {
		t.Fatal("truncated RGID accepted")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	in := Response{
		RID:     3,
		Magic:   MagicResponse,
		RV:      0x1234,
		Source:  SourceMarker{Pod: 9, Rack: 77},
		Status:  Status{QueueSize: 42, ServiceTimeUs: 4000.5},
		Payload: []byte("value-bytes"),
	}
	buf, err := AppendResponse(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalResponse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.RID != in.RID || out.Magic != in.Magic || out.RV != in.RV ||
		out.Source != in.Source || out.Status != in.Status {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	if !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("payload = %q", out.Payload)
	}
}

func TestResponseValidation(t *testing.T) {
	if _, err := AppendResponse(nil, Response{Magic: MaxMagic + 1}); !errors.Is(err, ErrFieldRange) {
		t.Fatal("oversized magic accepted")
	}
	if _, err := AppendResponse(nil, Response{Status: Status{ServiceTimeUs: float32(math.NaN())}}); !errors.Is(err, ErrFieldRange) {
		t.Fatal("NaN service time accepted")
	}
	if _, err := AppendResponse(nil, Response{Status: Status{ServiceTimeUs: -1}}); !errors.Is(err, ErrFieldRange) {
		t.Fatal("negative service time accepted")
	}
	if _, err := UnmarshalResponse(make([]byte, 5)); !errors.Is(err, ErrShortPacket) {
		t.Fatal("short response accepted")
	}
	// Corrupt SSL claiming more bytes than present.
	buf, err := AppendResponse(nil, Response{Magic: MagicResponse})
	if err != nil {
		t.Fatal(err)
	}
	buf[14] = 0xff // SSL high byte
	if _, err := UnmarshalResponse(buf); !errors.Is(err, ErrShortPacket) {
		t.Fatal("overlong SSL accepted")
	}
}

func TestPeekAndRewrite(t *testing.T) {
	buf, err := AppendRequest(nil, Request{RID: 1, Magic: MagicRequest, RGID: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := PeekMagic(buf)
	if err != nil || m != MagicRequest {
		t.Fatalf("PeekMagic = %x, %v", uint64(m), err)
	}
	if err := SetMagic(buf, Transform(MagicMonitor)); err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.RID != 1 || out.Magic != Transform(MagicMonitor) || out.RGID != 2 {
		t.Fatalf("after rewrite: %+v", out)
	}
	if _, err := PeekMagic(nil); !errors.Is(err, ErrShortPacket) {
		t.Fatal("peek on empty accepted")
	}
	if err := SetMagic(make([]byte, 3), 1); !errors.Is(err, ErrShortPacket) {
		t.Fatal("SetMagic on short accepted")
	}
	if err := SetMagic(buf, MaxMagic+1); !errors.Is(err, ErrFieldRange) {
		t.Fatal("SetMagic oversized accepted")
	}
}

// TestSetRV: an operator restores the client's retaining value on a
// response in place; every other field is left as it was.
func TestSetRV(t *testing.T) {
	in := Response{RID: 3, Magic: MagicResponse, RV: 0x1111,
		Source: SourceMarker{Pod: 1, Rack: 2}, Status: Status{QueueSize: 4, ServiceTimeUs: 5},
		Payload: []byte("value")}
	buf, err := AppendResponse(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := SetRV(buf, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalResponse(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := in
	want.RV = 0xBEEF
	if out.RID != want.RID || out.Magic != want.Magic || out.RV != want.RV ||
		out.Source != want.Source || out.Status != want.Status || !bytes.Equal(out.Payload, want.Payload) {
		t.Fatalf("after SetRV: %+v, want %+v", out, want)
	}
	if err := SetRV(make([]byte, headerLen-1), 1); !errors.Is(err, ErrShortPacket) {
		t.Fatal("SetRV on short accepted")
	}
}

// TestUnmarshalAllocFree: both decoders run without a heap allocation,
// and the decoded Payload shares its backing array with the input.
func TestUnmarshalAllocFree(t *testing.T) {
	req, err := AppendRequest(nil, Request{Magic: MagicRequest, RGID: 1, Payload: []byte("key")})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := AppendResponse(nil, Response{Magic: MagicMonitor, Payload: []byte("value")})
	if err != nil {
		t.Fatal(err)
	}
	var r Request
	var p Response
	if n := testing.AllocsPerRun(100, func() { r, _ = UnmarshalRequest(req) }); n != 0 {
		t.Errorf("UnmarshalRequest: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { p, _ = UnmarshalResponse(resp) }); n != 0 {
		t.Errorf("UnmarshalResponse: %v allocs, want 0", n)
	}
	if &r.Payload[0] != &req[requestFixedLen] {
		t.Error("request payload does not alias the packet")
	}
	if &p.Payload[0] != &resp[responseFixedLen+statusLen] {
		t.Error("response payload does not alias the packet")
	}
}

func TestDegradedRIDIsNotARealOperator(t *testing.T) {
	// Operator IDs are assigned from 1 upward; the degraded marker must
	// stay out of that space.
	if DegradedRID < 0x8000 {
		t.Fatal("DegradedRID overlaps plausible operator IDs")
	}
}

// Property: request marshal/unmarshal is an identity over valid field
// ranges.
func TestRequestRoundTripProperty(t *testing.T) {
	f := func(rid uint16, magic uint64, rv uint16, rgid uint32, payload []byte) bool {
		in := Request{
			RID:     rid,
			Magic:   Magic(magic) & MaxMagic,
			RV:      rv,
			RGID:    rgid & 0xffffff,
			Payload: payload,
		}
		buf, err := AppendRequest(nil, in)
		if err != nil {
			return false
		}
		out, err := UnmarshalRequest(buf)
		if err != nil {
			return false
		}
		if len(in.Payload) == 0 {
			return out.RID == in.RID && out.Magic == in.Magic && out.RV == in.RV &&
				out.RGID == in.RGID && out.Payload == nil
		}
		return out.RID == in.RID && out.Magic == in.Magic && out.RV == in.RV &&
			out.RGID == in.RGID && bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: response marshal/unmarshal is an identity over valid field
// ranges.
func TestResponseRoundTripProperty(t *testing.T) {
	f := func(rid uint16, magic uint64, rv uint16, pod, rack, q uint16, stUs uint32, payload []byte) bool {
		st := math.Float32frombits(stUs)
		if math.IsNaN(float64(st)) || st < 0 {
			st = 1
		}
		in := Response{
			RID:     rid,
			Magic:   Magic(magic) & MaxMagic,
			RV:      rv,
			Source:  SourceMarker{Pod: pod, Rack: rack},
			Status:  Status{QueueSize: q, ServiceTimeUs: st},
			Payload: payload,
		}
		buf, err := AppendResponse(nil, in)
		if err != nil {
			return false
		}
		out, err := UnmarshalResponse(buf)
		if err != nil {
			return false
		}
		return out.RID == in.RID && out.Magic == in.Magic && out.RV == in.RV &&
			out.Source == in.Source && out.Status == in.Status &&
			bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// The server-side magic algebra of §IV-C: a response's magic is f⁻¹ of its
// request's magic, which yields Mresp for selector-processed requests and
// Mmon for degraded ones.
func TestServerMagicAlgebra(t *testing.T) {
	if got := InverseTransform(Transform(MagicResponse)); got != MagicResponse {
		t.Fatalf("selector-processed request yields %x", uint64(got))
	}
	if got := InverseTransform(Transform(MagicMonitor)); got != MagicMonitor {
		t.Fatalf("degraded request yields %x", uint64(got))
	}
	if Classify(InverseTransform(Transform(MagicResponse))) != KindResponse {
		t.Fatal("selector-processed response not classified as NetRS response")
	}
	if Classify(InverseTransform(Transform(MagicMonitor))) != KindMonitor {
		t.Fatal("degraded response not classified as monitor-visible")
	}
}

func BenchmarkAppendRequest(b *testing.B) {
	payload := bytes.Repeat([]byte("k"), 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AppendRequest(nil, Request{Magic: MagicRequest, RGID: 77, Payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalResponse(b *testing.B) {
	buf, err := AppendResponse(nil, Response{
		Magic:   MagicResponse,
		Status:  Status{QueueSize: 3, ServiceTimeUs: 4000},
		Payload: bytes.Repeat([]byte("v"), 1024),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalResponse(buf); err != nil {
			b.Fatal(err)
		}
	}
}
