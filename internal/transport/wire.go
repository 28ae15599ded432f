package transport

import (
	"encoding/binary"
	"fmt"
)

// Binary wire primitives shared by every message codec: LEB128
// unsigned varints for integers and length prefixes, and a bounds-checked
// cursor for decoding. The conventions (documented in the README's wire
// format section):
//
//   - every integer field is a uvarint; signed 32-bit fields are cast
//     through uint32 first so negative values stay 5 bytes, and int fields
//     through uint64 (negative ints round-trip, at 10 bytes — no protocol
//     field is negative in practice);
//   - slices are a uvarint count followed by the elements; a zero count
//     decodes to a nil slice, so nil and empty slices encode alike;
//   - large []byte payloads (pages, diff run data) are declared by length
//     in the metadata but their bytes live in a payload section after all
//     metadata, so the transport can hand them to the socket as separate
//     iovecs (net.Buffers) without copying them into the frame buffer.

// AppendUvarint appends v to b in LEB128 and returns the extended slice.
func AppendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// UvarintLen returns the encoded length of v in bytes (1..10).
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// WireReader is a bounds-checked decode cursor over one frame body.
// Malformed input never panics: the first out-of-bounds or overlong read
// poisons the reader, every later read returns zero values, and Close
// reports the failure. []byte reads alias the underlying buffer — decoded
// messages share the frame blob instead of allocating per payload.
type WireReader struct {
	b   []byte
	off int
	bad bool
}

// NewWireReader returns a reader over body.
func NewWireReader(body []byte) *WireReader { return &WireReader{b: body} }

// Uvarint reads one LEB128 varint.
func (r *WireReader) Uvarint() uint64 {
	var v uint64
	var shift uint
	for {
		if r.bad || r.off >= len(r.b) || shift > 63 {
			r.bad = true
			return 0
		}
		c := r.b[r.off]
		r.off++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
		shift += 7
	}
}

// Int reads an int encoded with AppendUvarint(uint64(v)).
func (r *WireReader) Int() int { return int(r.Uvarint()) }

// I32 reads an int32 encoded with AppendUvarint(uint64(uint32(v))).
func (r *WireReader) I32() int32 { return int32(uint32(r.Uvarint())) }

// Byte reads one raw byte.
func (r *WireReader) Byte() byte {
	if r.bad || r.off >= len(r.b) {
		r.bad = true
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

// Fixed64 reads eight bytes as a little-endian uint64 (the encoding of
// fields, like checksums, whose values are spread over the whole range).
func (r *WireReader) Fixed64() uint64 {
	b := r.Bytes(8)
	if len(b) < 8 {
		r.bad = true
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Bool reads one byte as a bool.
func (r *WireReader) Bool() bool { return r.Byte() != 0 }

// Bytes reads n raw bytes, aliasing the underlying buffer. n == 0 returns
// nil (the nil/empty normalization every slice field follows).
func (r *WireReader) Bytes(n int) []byte {
	if n == 0 {
		return nil
	}
	if r.bad || n < 0 || n > len(r.b)-r.off {
		r.bad = true
		return nil
	}
	s := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return s
}

// Count reads a uvarint element count and rejects values that could not
// possibly fit in the remaining bytes at elemMin bytes per element —
// the guard that keeps a corrupt length prefix from driving a huge
// allocation. elemMin < 1 is treated as 1.
func (r *WireReader) Count(elemMin int) int {
	if elemMin < 1 {
		elemMin = 1
	}
	n := r.Uvarint()
	if r.bad || n > uint64(len(r.b)-r.off)/uint64(elemMin) {
		r.bad = true
		return 0
	}
	return int(n)
}

// Remaining reports the unread byte count.
func (r *WireReader) Remaining() int {
	if r.bad {
		return 0
	}
	return len(r.b) - r.off
}

// Fail poisons the reader from codec-level validation (an impossible
// field combination the primitive reads cannot catch).
func (r *WireReader) Fail() { r.bad = true }

// Close returns an error if the body was malformed or not fully consumed.
func (r *WireReader) Close() error {
	if r.bad {
		return fmt.Errorf("transport: malformed wire body")
	}
	if r.off != len(r.b) {
		return fmt.Errorf("transport: wire body has %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}
