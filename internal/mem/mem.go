// Package mem implements the shared-memory page substrate used by all the
// DSM protocols: fixed-size pages, twins (pristine copies made at the first
// write of an interval), and run-length-encoded diffs, the TreadMarks record
// of the modifications made to a page.
package mem

import "encoding/binary"

// Page geometry. The paper's platform used 4096-byte pages.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	// WordSize is the comparison granularity when diffing (TreadMarks
	// compares 32-bit words).
	WordSize = 4
)

// PageOf returns the page number containing byte address addr.
func PageOf(addr int) int { return addr >> PageShift }

// PageBase returns the first byte address of page p.
func PageBase(p int) int { return p << PageShift }

// NewPage allocates a zeroed page.
func NewPage() []byte { return make([]byte, PageSize) }

// Twin returns a pristine copy of the page (the "twin" made on the first
// write to a write-protected page).
func Twin(page []byte) []byte {
	t := make([]byte, len(page))
	copy(t, page)
	return t
}

// Run is one modified extent within a page.
type Run struct {
	Off  int
	Data []byte
}

// Diff is a run-length encoded record of the modifications made to a page,
// obtained by comparing the twin with the current contents.
type Diff struct {
	Page int
	Runs []Run
}

// MakeDiff compares twin and cur word by word and returns the run-length
// encoded modifications. Returns a Diff with no runs when the copies are
// identical.
//
// The diff is built at its exact size: a first pass counts the runs and
// their bytes, the second fills one Runs slice and one backing buffer that
// every run's Data is a capacity-clipped window of, so a diff costs at most
// three allocations however many runs it has.
func MakeDiff(page int, twin, cur []byte) *Diff {
	if len(twin) != len(cur) {
		panic("mem: twin/page size mismatch")
	}
	nruns, nbytes := 0, 0
	for i := 0; ; {
		start, end := nextRun(twin, cur, i)
		if start == end {
			break
		}
		nruns++
		nbytes += end - start
		i = end
	}
	d := &Diff{Page: page}
	if nruns == 0 {
		return d
	}
	d.Runs = make([]Run, nruns)
	buf := make([]byte, nbytes)
	off := 0
	for k, i := 0, 0; k < nruns; k++ {
		start, end := nextRun(twin, cur, i)
		next := off + copy(buf[off:], cur[start:end])
		d.Runs[k] = Run{Off: start, Data: buf[off:next:next]}
		off, i = next, end
	}
	return d
}

// nextRun returns the next modified extent [start, end) at or after byte
// i, with boundaries at WordSize granularity (end clipped to the page), or
// start == end == len(cur) when the rest of the page is unmodified. Equal
// and wholly modified stretches are crossed 8 bytes (two words) at a time;
// wordEqual places the run edges.
func nextRun(twin, cur []byte, i int) (start, end int) {
	n := len(cur)
	for i+8 <= n && binary.LittleEndian.Uint64(twin[i:]) == binary.LittleEndian.Uint64(cur[i:]) {
		i += 8
	}
	for i < n && wordEqual(twin, cur, i) {
		i += WordSize
	}
	if i >= n {
		return n, n
	}
	start = i
	for i+8 <= n {
		x := binary.LittleEndian.Uint64(twin[i:]) ^ binary.LittleEndian.Uint64(cur[i:])
		if uint32(x) == 0 || x>>32 == 0 {
			break
		}
		i += 8
	}
	for i < n && !wordEqual(twin, cur, i) {
		i += WordSize
	}
	return start, min(i, n)
}

// wordEqual reports whether the WordSize-byte word at off (clipped to the
// page end) is unmodified.
func wordEqual(a, b []byte, off int) bool {
	if off+WordSize <= len(a) {
		return binary.LittleEndian.Uint32(a[off:]) == binary.LittleEndian.Uint32(b[off:])
	}
	for i := off; i < len(a); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Apply writes the diff's runs into dst (the receiver's copy of the page).
func (d *Diff) Apply(dst []byte) {
	for _, r := range d.Runs {
		copy(dst[r.Off:], r.Data)
	}
}

// DataBytes returns the number of modified bytes carried by the diff.
func (d *Diff) DataBytes() int {
	n := 0
	for _, r := range d.Runs {
		n += len(r.Data)
	}
	return n
}

// EncodedSize returns the exact wire size of the diff under the binary
// frame format: uvarint page id and run count, then per run a uvarint
// (offset, length) header plus the data bytes — TreadMarks' runlength
// encoding with varint headers.
func (d *Diff) EncodedSize() int {
	n := uvarintLen(uint64(d.Page)) + uvarintLen(uint64(len(d.Runs)))
	for _, r := range d.Runs {
		n += uvarintLen(uint64(r.Off)) + uvarintLen(uint64(len(r.Data))) + len(r.Data)
	}
	return n
}

// uvarintLen is the LEB128 length of v (kept local so mem stays a leaf
// package; must agree with transport.UvarintLen).
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Empty reports whether the diff carries no modifications.
func (d *Diff) Empty() bool { return len(d.Runs) == 0 }

// Accessors for typed shared-memory access. All multi-byte values use
// little-endian layout within the page.

// LoadUint32 reads a 32-bit value at byte offset off within page bytes.
func LoadUint32(page []byte, off int) uint32 {
	return binary.LittleEndian.Uint32(page[off:])
}

// StoreUint32 writes a 32-bit value at byte offset off.
func StoreUint32(page []byte, off int, v uint32) {
	binary.LittleEndian.PutUint32(page[off:], v)
}

// LoadUint64 reads a 64-bit value at byte offset off.
func LoadUint64(page []byte, off int) uint64 {
	return binary.LittleEndian.Uint64(page[off:])
}

// StoreUint64 writes a 64-bit value at byte offset off.
func StoreUint64(page []byte, off int, v uint64) {
	binary.LittleEndian.PutUint64(page[off:], v)
}
