package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// runCell prepares a workload at small size and runs one checked cell.
func runCell(t *testing.T, name string, seed int64) cell {
	t.Helper()
	wl, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	r, err := wl.prepare(seed, true)
	if err != nil {
		t.Fatal(err)
	}
	c := r.cell(nil)
	if c.err != nil {
		t.Fatalf("%s: %v", name, c.err)
	}
	return c
}

// Two runs of a sim workload with the same seed agree bit for bit on
// everything the simulator decides: virtual time, per-node body times, the
// kv virtual latencies and every protocol counter.
func TestSimWorkloadsDeterministic(t *testing.T) {
	for _, name := range []string{"sor-mw-sim", "kv-mw-sim"} {
		a, b := runCell(t, name, 7), runCell(t, name, 7)
		if a.vtime != b.vtime || a.vtime == 0 {
			t.Errorf("%s: vtime %v then %v", name, a.vtime, b.vtime)
		}
		if !reflect.DeepEqual(a.bodyV, b.bodyV) {
			t.Errorf("%s: body virtual times %v then %v", name, a.bodyV, b.bodyV)
		}
		if !reflect.DeepEqual(a.stats, b.stats) {
			t.Errorf("%s: counters differ:\n%+v\n%+v", name, a.stats, b.stats)
		}
		if !reflect.DeepEqual(a.kv, b.kv) {
			t.Errorf("%s: kv virtual latencies differ", name)
		}
	}
}

// The tcp workload's traffic does not depend on timing.
func TestCkptTrafficDeterministic(t *testing.T) {
	a, b := runCell(t, "ckpt-hlrc-tcp", 7), runCell(t, "ckpt-hlrc-tcp", 7)
	if a.stats.Messages != b.stats.Messages || a.stats.Messages == 0 {
		t.Errorf("messages %d then %d", a.stats.Messages, b.stats.Messages)
	}
	if a.stats.WireBytes != b.stats.WireBytes || a.stats.WireBytes == 0 {
		t.Errorf("wire bytes %d then %d", a.stats.WireBytes, b.stats.WireBytes)
	}
	if a.stats.Checkpoints == 0 || len(a.ckpt.step) == 0 || len(a.ckpt.syncCkpt) == 0 || len(a.ckpt.sync) == 0 {
		t.Errorf("checkpoints %d, step samples %d/%d/%d", a.stats.Checkpoints,
			len(a.ckpt.step), len(a.ckpt.syncCkpt), len(a.ckpt.sync))
	}
}

// The seed is the kv schedule seed: another seed serves another schedule.
func TestKVSeedChangesSchedule(t *testing.T) {
	a, b := kvWorkload(1, true), kvWorkload(2, true)
	if reflect.DeepEqual(a.Schedule(0, simProcs), b.Schedule(0, simProcs)) {
		t.Error("seeds 1 and 2 gave the same schedule")
	}
	if !reflect.DeepEqual(a.Schedule(0, simProcs), kvWorkload(1, true).Schedule(0, simProcs)) {
		t.Error("seed 1 gave two different schedules")
	}
}

// A short run in each mode prints every metric of BENCHMARK.json's list,
// with all cells correct, as the last line of stdout.
func TestRunPrintsResultLine(t *testing.T) {
	wl, _ := lookupWorkload("kv-mw-sim")
	for _, traced := range []bool{false, true} {
		res, err := measure(wl, 3, true, 100*time.Millisecond, traced)
		if err != nil {
			t.Fatalf("traced %v: %v", traced, err)
		}
		if traced {
			if err := res.writeTrace(filepath.Join(t.TempDir(), "trace.json")); err != nil {
				t.Fatal(err)
			}
		}
		var stdout, stderr bytes.Buffer
		if err := res.print(&stdout, &stderr); err != nil {
			t.Fatalf("traced %v: %v: %s", traced, err, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var out output
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
			t.Fatal(err)
		}
		want, cells := endToEndMetrics(nil), 1+minCells // a warm-up cell, then timed cells
		if traced {
			want, cells = layerMetrics(nil, nil, nil), 1+2*minCells
		}
		if !out.Correct || out.Failed != 0 || out.Attempted < cells || len(out.Metrics) != len(want) {
			t.Errorf("traced %v: %+v", traced, out)
		}
		for _, m := range want {
			if got, ok := out.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("traced %v: metric %s = %+v, want unit %s", traced, m.name, got, m.unit)
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "kv-mw-sim", "--trace", "2"},
		{"--workload", "kv-mw-sim", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
