package core

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"adsm/internal/transport"
)

// binaryRoundTrip pushes m through its codec — the frame body a tcp frame
// carries — and decodes it back via the frozen wire id.
func binaryRoundTrip(t testing.TB, m transport.Msg) transport.Msg {
	t.Helper()
	body, ok := transport.WireBody(m)
	if !ok {
		t.Fatalf("%T has no codec", m)
	}
	id, ok := transport.WireIDOf(m)
	if !ok {
		t.Fatalf("%T has no frozen wire id", m)
	}
	c, ok := transport.WireCodecByID(id)
	if !ok {
		t.Fatalf("%T: wire id %d does not resolve", m, id)
	}
	m2, err := c.DecodeWire(body)
	if err != nil {
		t.Fatalf("%T: DecodeWire: %v", m, err)
	}
	return m2
}

// TestBinaryRoundTrip pins decode∘encode to the identity for every
// registered core message: decoding a sample's encoding must yield a
// message deeply equal to the sample — same values, same nil slices
// (samples spell empty slices as nil, the shape every decoder produces),
// same rebuilt interval back-pointers. Each codec's zero-value sample
// rides along to pin the empty-message encodings.
func TestBinaryRoundTrip(t *testing.T) {
	for name, msgs := range allSamples() {
		for i, m := range msgs {
			if got := binaryRoundTrip(t, m); !reflect.DeepEqual(got, m) {
				t.Errorf("%s[%d]: round trip changed the message:\n got %#v\nwant %#v",
					name, i, got, m)
			}
		}
	}
}

// FuzzWire drives every codec with arbitrary frame bodies. The first byte
// of the input picks the codec by its frozen wire id, the rest is the
// body; the seeds are, per codec in wire-id order, every sample's
// encoding, the empty body and an overlong varint. Two properties must
// hold: malformed input returns an error without panicking, and any
// accepted input decodes to a message whose own re-encoding is a fixed
// point (encode∘decode stable, Size() equal to the encoded length) — so a
// frame that survives validation can be relayed byte-identically.
func FuzzWire(f *testing.F) {
	samples := msgSamples()
	codecs := transport.Codecs()
	sort.Slice(codecs, func(i, j int) bool { return codecs[i].Name < codecs[j].Name })
	for _, c := range codecs {
		id, _ := transport.WireIDOf(c.Msg)
		if id > 255 {
			f.Fatalf("codec %q has wire id %d, beyond the one-byte selector", c.Name, id)
		}
		for _, m := range samples[c.Name] {
			body, _ := transport.WireBody(m)
			f.Add(append([]byte{byte(id)}, body...))
		}
		f.Add([]byte{byte(id)})
		f.Add([]byte{byte(id), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		codec, ok := transport.WireCodecByID(uint16(in[0]))
		if !ok {
			return
		}
		checkWireFixedPoint(t, codec, in[1:])
	})
}

// fuzzWireCodec drives one codec alone with arbitrary frame bodies, seeded
// with its samples' encodings, the empty body and an overlong varint; the
// properties are FuzzWire's. The per-codec targets below keep a focused
// fuzzing entry point for the variable-length responses, whose decoders do
// the most bounds checking.
func fuzzWireCodec(f *testing.F, name string) {
	var codec transport.Codec
	for _, c := range transport.Codecs() {
		if c.Name == name {
			codec = c
		}
	}
	if codec.DecodeWire == nil {
		f.Fatalf("codec %q has no binary hooks", name)
	}
	for _, m := range msgSamples()[name] {
		body, ok := transport.WireBody(m)
		if !ok {
			f.Fatalf("sample %T has no binary encoding", m)
		}
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, body []byte) {
		checkWireFixedPoint(t, codec, body)
	})
}

func FuzzDiffRespWire(f *testing.F)       { fuzzWireCodec(f, "diffResp") }
func FuzzSpanFetchRespWire(f *testing.F)  { fuzzWireCodec(f, "spanFetchResp") }
func FuzzRegionReadRespWire(f *testing.F) { fuzzWireCodec(f, "regionReadResp") }
func FuzzRegionSpanRespWire(f *testing.F) { fuzzWireCodec(f, "regionSpanResp") }

// checkWireFixedPoint decodes body with codec; a rejection is fine, but an
// accepted body must re-encode to a fixed point that decodes to an equal
// message, with Size() equal to the encoded length.
func checkWireFixedPoint(t *testing.T, codec transport.Codec, body []byte) {
	t.Helper()
	m1, err := codec.DecodeWire(body)
	if err != nil {
		return
	}
	b1, ok := transport.WireBody(m1)
	if !ok {
		t.Fatalf("decoded %T lost its codec", m1)
	}
	if m1.Size() != len(b1) {
		t.Fatalf("%s: Size()=%d but encoding is %d bytes", codec.Name, m1.Size(), len(b1))
	}
	m2, err := codec.DecodeWire(b1)
	if err != nil {
		t.Fatalf("%s: re-decode of canonical encoding failed: %v", codec.Name, err)
	}
	b2, _ := transport.WireBody(m2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("%s: encoding not a fixed point:\n b1 %x\n b2 %x", codec.Name, b1, b2)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("%s: decode of own encoding changed the message:\n m1 %#v\n m2 %#v", codec.Name, m1, m2)
	}
}

// TestRegionMessagesMirrorHandlerSizes pins the count-equivalence design of
// the one-sided path: a served region read must charge the traffic counters
// exactly what the handler path would have charged, so each region message's
// encoding must be byte-length-identical to the request/response pair it
// replaces. If these drift, -onesided runs stop being byte-comparable to
// handler-path runs and the equivalence suites lose their teeth.
func TestRegionMessagesMirrorHandlerSizes(t *testing.T) {
	pairs := []struct {
		name   string
		region transport.Msg
		mirror transport.Msg
	}{
		{"read req", regionReadReq{Page: 9000, Hops: 3}, pageReq{Page: 9000, Hops: 3}},
		{"read resp", regionReadResp{Data: make([]byte, 4096), Applied: sampleVC()},
			pageResp{Data: make([]byte, 4096), Applied: sampleVC()}},
		{"span req", regionSpanReq{Pages: []int{4, 5, 600}},
			spanFetchReq{Pages: []int{4, 5, 600}}},
		{"span resp",
			regionSpanResp{Pages: []spanPageCopy{
				{Page: 4, Served: true, Data: make([]byte, 4096), Applied: sampleVC()},
				{Page: 600, Served: true, Data: make([]byte, 4096), Applied: sampleVC()},
			}},
			spanFetchResp{Pages: []spanPageCopy{
				{Page: 4, Served: true, Data: make([]byte, 4096), Applied: sampleVC()},
				{Page: 600, Served: true, Data: make([]byte, 4096), Applied: sampleVC()},
			}}},
	}
	for _, p := range pairs {
		rb, ok := transport.WireBody(p.region)
		if !ok {
			t.Fatalf("%s: region message has no binary codec", p.name)
		}
		mb, ok := transport.WireBody(p.mirror)
		if !ok {
			t.Fatalf("%s: mirrored message has no binary codec", p.name)
		}
		if len(rb) != len(mb) {
			t.Errorf("%s: region encoding is %d bytes, handler-path mirror is %d",
				p.name, len(rb), len(mb))
		}
		if p.region.Size() != p.mirror.Size() {
			t.Errorf("%s: region Size()=%d, handler-path mirror Size()=%d",
				p.name, p.region.Size(), p.mirror.Size())
		}
	}
}
