package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFuncPackage(t *testing.T) {
	for in, want := range map[string]string{
		"adsm/internal/core.(*Node).Acquire":         "adsm/internal/core",
		"adsm.Shared[go.shape.uint64].Span":          "adsm",
		"adsm/internal/transport/tcp.(*lane).writer": "adsm/internal/transport/tcp",
		"encoding/gob.(*Decoder).decodeStruct":       "encoding/gob",
		"runtime.mallocgc":                           "runtime",
		"main.(*kvRunner).serve.func1":               "main",
		"adsm/internal/mem.f[adsm/internal/vc.T]":    "adsm/internal/mem",
	} {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "adsm/internal/mem.MakeDiff", "adsm/internal/core.(*Node).closeInterval"}, "mem"},
		{[]string{"reflect.Value.Field", "encoding/gob.(*Decoder).decodeStruct", "adsm/internal/transport/tcp.(*conn).read"}, "gob"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "adsm/internal/core.(*Node).twin"}, "gc"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write"}, "syscall"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.schedule"}, "other"},
		{[]string{"adsm/internal/sim.(*Engine).Run"}, "sim"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

var sink uint64

// foldProfile reads a real runtime/pprof CPU profile.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			sink = sink*31 + uint64(i)
		}
	}
	pprof.StopCPUProfile()
	shares, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if shares["other"] == 0 {
		t.Errorf("a busy loop in package main folded to %v, want its samples under other", shares)
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += shares.pct(l)
	}
	if sum < 99.999 || sum > 100.001 {
		t.Errorf("layer shares sum to %v%%, want 100%%", sum)
	}
}
