package tcp

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"adsm/internal/transport"
)

// bmsg is a registered test message: varint metadata plus a raw payload
// section, the same shape as the protocol's page and diff carriers.
// Registered in init (before any transport use), so it gets a frozen wire
// id like the protocol messages.
type bmsg struct {
	N    int
	Data []byte
}

func (m bmsg) Size() int {
	return transport.UvarintLen(uint64(m.N)) +
		transport.UvarintLen(uint64(len(m.Data))) + len(m.Data)
}

func bmsgAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(bmsg)
	b = transport.AppendUvarint(b, uint64(r.N))
	b = transport.AppendUvarint(b, uint64(len(r.Data)))
	return b, append(payloads, r.Data)
}

func bmsgDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	var m bmsg
	m.N = r.Int()
	m.Data = r.Bytes(r.Count(1))
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func init() {
	transport.MustRegisterCodec(transport.Codec{
		Name: "tcptest.bmsg", Msg: bmsg{},
		AppendWire: bmsgAppendWire, DecodeWire: bmsgDecodeWire,
	})
}

// roundTripFrame encodes f, writes it through the vectored-write path into
// a buffer, and reads it back — the full framing path minus the socket.
func roundTripFrame(t testing.TB, f *frame) *frame {
	t.Helper()
	of, err := encodeFrame(f)
	if err != nil {
		t.Fatalf("encodeFrame: %v", err)
	}
	var buf bytes.Buffer
	if err := writeOut(&buf, of); err != nil {
		t.Fatalf("writeOut: %v", err)
	}
	if buf.Len() != of.wire {
		t.Fatalf("outFrame.wire=%d but %d bytes were written", of.wire, buf.Len())
	}
	f2, err := readFrame(&buf)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("readFrame left %d trailing bytes", buf.Len())
	}
	return f2
}

// TestFrameRoundTripKinds pins the frame format for every body kind: a
// message with a payload section, an empty message, an error reply, a
// hello handshake and a bodiless bye must all survive encode→vectored
// write→read with every header field and the message value intact. A
// frame with the retired body kind 2, an unknown wire id or a truncated
// hello must be refused with an error.
func TestFrameRoundTripKinds(t *testing.T) {
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	cases := []struct {
		name string
		f    *frame
	}{
		{"binary", &frame{Op: opCall, From: 1, To: 2, Origin: 1, CallID: 77, Idx: 3,
			M: bmsg{N: 9000, Data: payload}}},
		{"binary-empty", &frame{Op: opReply, From: 2, To: 1, Origin: 1, CallID: 78,
			M: bmsg{}}},
		{"err", &frame{Op: opReply, From: 0, To: 1, Origin: 1, CallID: 81,
			Err: "tcp: something broke"}},
		{"hello", &frame{Op: opHello, From: 4, To: 0, Tag: "sor/mw/8",
			Digest: 0xdeadbeefcafe}},
		{"hello-reject", &frame{Op: opHello, From: 4, To: 0, Tag: "sor/mw/8",
			Digest: 1, Err: "mismatch"}},
		{"bye", &frame{Op: opBye, From: 1, To: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := roundTripFrame(t, tc.f)
			if !reflect.DeepEqual(got, tc.f) {
				t.Errorf("frame changed in round trip:\n got %+v\nwant %+v", got, tc.f)
			}
		})
	}

	// The refused frames are valid frames with their header patched (a
	// hello is cut short: its fixed 8-byte fields must not be read past
	// the end of the body).
	msg := &frame{Op: opCall, From: 1, To: 2, CallID: 82, M: tmsg{N: 42, S: "hello"}}
	hello := &frame{Op: opHello, From: 4, To: 0, Tag: "sor/mw/8", Digest: 7}
	refused := []struct {
		name  string
		f     *frame
		patch func(wire []byte) []byte
	}{
		{"retired-kind-2", msg, func(wire []byte) []byte { wire[5] = 2; return wire }},
		{"unknown-wire-id", msg, func(wire []byte) []byte {
			binary.LittleEndian.PutUint16(wire[6:], 0xffff)
			return wire
		}},
		{"truncated-hello", hello, func(wire []byte) []byte {
			binary.LittleEndian.PutUint32(wire[0:], 12)
			return wire[:headerLen+12]
		}},
	}
	for _, tc := range refused {
		t.Run(tc.name, func(t *testing.T) {
			of, err := encodeFrame(tc.f)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := writeOut(&buf, of); err != nil {
				t.Fatal(err)
			}
			if f, err := readFrame(bytes.NewReader(tc.patch(buf.Bytes()))); err == nil {
				t.Errorf("readFrame accepted the frame: %+v", f)
			}
		})
	}
}

// TestBinaryFrameEncodeAllocs asserts the hot-path budget: encoding a
// binary frame with a 4 KB payload must not allocate (≤1 alloc/frame
// allowed for pool jitter). The payload travels by reference into the
// iovec list and the header+metadata reuse the pooled buffer, so the
// steady state is allocation-free.
func TestBinaryFrameEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation randomly drops sync.Pool puts, inflating the alloc count")
	}
	payload := make([]byte, 4096)
	f := &frame{Op: opCall, From: 1, To: 2, Origin: 1, CallID: 1, M: bmsg{N: 7, Data: payload}}
	// Warm the pool and the iovec capacity.
	for i := 0; i < 8; i++ {
		of, err := encodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		of.fb.recycle()
	}
	avg := testing.AllocsPerRun(100, func() {
		of, err := encodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		of.fb.recycle()
	})
	if avg > 1 {
		t.Errorf("binary frame encode allocates %.1f times per frame (budget ≤1)", avg)
	}
}

// The encode/decode microbenchmarks CI runs to keep the frame path honest
// (report with -benchmem: an encode is allocation-free; a decode
// allocates the frame blob and the message).

func BenchmarkFrameEncodeBinary(b *testing.B) {
	payload := make([]byte, 4096)
	f := &frame{Op: opCall, From: 1, To: 2, Origin: 1, CallID: 1, M: bmsg{N: 7, Data: payload}}
	b.SetBytes(int64(headerLen + bmsg{N: 7, Data: payload}.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		of, err := encodeFrame(f)
		if err != nil {
			b.Fatal(err)
		}
		of.fb.recycle()
	}
}

func BenchmarkFrameDecodeBinary(b *testing.B) {
	payload := make([]byte, 4096)
	f := &frame{Op: opCall, From: 1, To: 2, Origin: 1, CallID: 1, M: bmsg{N: 7, Data: payload}}
	of, err := encodeFrame(f)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeOut(&buf, of); err != nil {
		b.Fatal(err)
	}
	wire := buf.Bytes()
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readFrame(bytes.NewReader(wire)); err != nil {
			b.Fatal(err)
		}
	}
}
