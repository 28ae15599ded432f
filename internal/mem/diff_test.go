package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// referenceDiff is the original byte-wise MakeDiff, kept as the oracle the
// word-wide, exact-size implementation must match run for run.
func referenceDiff(page int, twin, cur []byte) *Diff {
	d := &Diff{Page: page}
	n := len(cur)
	eq := func(off int) bool {
		for i := off; i < off+WordSize && i < n; i++ {
			if twin[i] != cur[i] {
				return false
			}
		}
		return true
	}
	i := 0
	for i < n {
		for i < n && eq(i) {
			i += WordSize
		}
		if i >= n {
			break
		}
		start := i
		for i < n && !eq(i) {
			i += WordSize
		}
		run := Run{Off: start, Data: make([]byte, i-start)}
		copy(run.Data, cur[start:i])
		d.Runs = append(d.Runs, run)
	}
	return d
}

// sameDiff reports why got differs from want, or "" when they carry the
// same runs, bytes and encoded size.
func sameDiff(got, want *Diff) string {
	if got.Page != want.Page || len(got.Runs) != len(want.Runs) {
		return "page or run count differs"
	}
	for i := range want.Runs {
		if got.Runs[i].Off != want.Runs[i].Off || !bytes.Equal(got.Runs[i].Data, want.Runs[i].Data) {
			return "run contents differ"
		}
	}
	if got.EncodedSize() != want.EncodedSize() || got.DataBytes() != want.DataBytes() {
		return "sizes differ"
	}
	return ""
}

func TestMakeDiffMatchesReference(t *testing.T) {
	type tc struct {
		name string
		edit func(p []byte)
	}
	flip := func(offs ...int) func(p []byte) {
		return func(p []byte) {
			for _, o := range offs {
				p[o] ^= 0xff
			}
		}
	}
	cases := []tc{
		{"all equal", func(p []byte) {}},
		{"all different", func(p []byte) {
			for i := range p {
				p[i] ^= 0x5a
			}
		}},
		{"byte 0", flip(0)},
		{"byte 3", flip(3)},
		{"byte 4", flip(4)},
		{"byte 4095", flip(PageSize - 1)},
		{"run to page end", func(p []byte) {
			for i := PageSize - 40; i < PageSize; i++ {
				p[i] ^= 0x11
			}
		}},
		{"alternating words", func(p []byte) {
			for i := 0; i < PageSize; i += 2 * WordSize {
				p[i] ^= 1
			}
		}},
		{"half of an 8-byte block", flip(12, 16)},
	}
	r := rand.New(rand.NewSource(1))
	for k := 0; k < 200; k++ {
		nmods := r.Intn(64)
		seed := r.Int63()
		cases = append(cases, tc{"random", func(p []byte) {
			rr := rand.New(rand.NewSource(seed))
			for i := 0; i < nmods; i++ {
				off := rr.Intn(PageSize)
				span := 1 + rr.Intn(48)
				for j := off; j < off+span && j < PageSize; j++ {
					p[j] = byte(rr.Int())
				}
			}
		}})
	}
	for _, c := range cases {
		twin := NewPage()
		r.Read(twin)
		cur := Twin(twin)
		c.edit(cur)
		if why := sameDiff(MakeDiff(7, twin, cur), referenceDiff(7, twin, cur)); why != "" {
			t.Fatalf("%s: MakeDiff disagrees with the byte-wise reference: %s", c.name, why)
		}
	}
}

func FuzzMakeDiff(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3})
	f.Add(int64(2), []byte{0xff, 0xff, 0x0f, 0x10, 0x00})
	f.Add(int64(3), bytes.Repeat([]byte{0x80}, 64))
	f.Fuzz(func(t *testing.T, seed int64, edits []byte) {
		r := rand.New(rand.NewSource(seed))
		twin := NewPage()
		r.Read(twin)
		cur := Twin(twin)
		// Each edit byte picks a stretch of the page to rewrite.
		for _, e := range edits {
			off := (int(e) * 131 * (1 + r.Intn(31))) % PageSize
			for j := off; j < off+1+int(e)%24 && j < PageSize; j++ {
				cur[j] = byte(r.Int())
			}
		}
		d := MakeDiff(0, twin, cur)
		if why := sameDiff(d, referenceDiff(0, twin, cur)); why != "" {
			t.Fatalf("MakeDiff disagrees with the byte-wise reference: %s", why)
		}
		rebuilt := Twin(twin)
		d.Apply(rebuilt)
		if !bytes.Equal(rebuilt, cur) {
			t.Fatalf("apply(diff(twin, cur), twin) != cur")
		}
		// Runs share one backing buffer: appending to one run's Data must
		// reallocate rather than overwrite the next run.
		for i := 0; i+1 < len(d.Runs); i++ {
			next := append([]byte(nil), d.Runs[i+1].Data...)
			_ = append(d.Runs[i].Data, 0xAA, 0xBB, 0xCC, 0xDD)
			if !bytes.Equal(d.Runs[i+1].Data, next) {
				t.Fatalf("appending to run %d overwrote run %d", i, i+1)
			}
		}
	})
}

// TestMakeDiffAllocs pins the exact-size build: the Diff, its Runs and one
// shared data buffer, however many runs the page has.
func TestMakeDiffAllocs(t *testing.T) {
	twin := NewPage()
	cur := Twin(twin)
	for i := 0; i < PageSize; i += 2 * WordSize {
		cur[i] = 1 // 512 separate runs
	}
	allocs := testing.AllocsPerRun(100, func() { MakeDiff(0, twin, cur) })
	if allocs > 3 {
		t.Errorf("MakeDiff allocated %.0f times per call, want <= 3", allocs)
	}
}
