package main

import (
	"fmt"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"adsm"
)

// cellRunner runs one cell of a prepared workload: a fresh cluster,
// checked against the workload's oracle. tr is nil for an untraced cell.
type cellRunner interface {
	cell(tr *tracer) cell
}

// cell is everything measured around one cluster. err is set when the run
// failed or its output did not match the oracle; the cell still counts as
// attempted.
type cell struct {
	err error

	setup time.Duration // NewCluster until the program's first instruction
	run   time.Duration // first instruction until Run returns
	cpu   time.Duration // process user+sys CPU over run

	clusterSetup time.Duration // NewCluster (with mesh formation on tcp)
	allocSetup   time.Duration // the app, table or stencil Setup

	rt rtSnap // runtime/metrics deltas over the whole cell, setup included

	vtime time.Duration   // the simulator's virtual time for the program
	bodyV []time.Duration // virtual body time per node
	stats adsm.Stats

	kv   kvSamples
	ckpt ckptSamples
}

// rtSnap holds the runtime/metrics counters the benchmark reads.
type rtSnap struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU                              float64 // seconds
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnap{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
	}
}

func (a rtSnap) sub(b rtSnap) rtSnap {
	return rtSnap{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcCPU:        a.gcCPU - b.gcCPU,
	}
}

// processCPU returns the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter clocks one cell from just before NewCluster. Every worker calls
// markFirst as its first instruction; the first call fixes the end of
// set-up and the start of the run.
type meter struct {
	t0       time.Time
	rt0      rtSnap
	first    atomic.Int64 // nanoseconds after t0, plus one; 0 until marked
	cpuFirst atomic.Int64
}

func startMeter() *meter {
	m := &meter{rt0: readRuntime()}
	m.t0 = time.Now()
	return m
}

func (m *meter) markFirst() {
	if m.first.Load() != 0 {
		return
	}
	cpu := processCPU()
	if m.first.CompareAndSwap(0, int64(time.Since(m.t0))+1) {
		m.cpuFirst.Store(int64(cpu))
	}
}

// finish stops the clocks; call it as soon as Run returns.
func (m *meter) finish(c *cell) {
	end := time.Since(m.t0)
	cpu := processCPU()
	c.rt = readRuntime().sub(m.rt0)
	first := time.Duration(m.first.Load() - 1)
	if first < 0 { // the program never started
		first = end
		m.cpuFirst.Store(int64(cpu))
	}
	c.setup, c.run = first, end-first
	c.cpu = cpu - time.Duration(m.cpuFirst.Load())
}

// recoverCell turns a panic raised on the calling goroutine (a cluster
// that cannot be built) into the cell's error, so it counts as a failed
// operation instead of ending the run.
func recoverCell(c *cell) {
	if r := recover(); r != nil {
		c.err = fmt.Errorf("panic: %v", r)
	}
}

// runCluster builds a cluster from cfg, lets setup allocate shared memory,
// and runs body on every worker, clocking each boundary and recording
// spans when tr is non-nil. body receives its node's span as the parent
// for finer spans.
func runCluster(tr *tracer, cfg adsm.Config, setup func(*adsm.Cluster),
	body func(w *adsm.Worker, parent span)) (c cell) {
	defer recoverCell(&c)
	root := tr.open("cell", 0, -1)
	defer tr.close(root)

	m := startMeter()
	sp := tr.open("adsm.NewCluster", root.ID, -1)
	cl := adsm.NewCluster(cfg)
	tr.close(sp)
	t1 := time.Now()
	sp = tr.open("setup", root.ID, -1)
	setup(cl)
	tr.close(sp)
	t2 := time.Now()
	c.clusterSetup, c.allocSetup = t1.Sub(m.t0), t2.Sub(t1)

	c.bodyV = make([]time.Duration, cfg.Procs)
	runSp := tr.open("adsm.Run", root.ID, -1)
	rep, err := cl.Run(func(w *adsm.Worker) {
		m.markFirst()
		bs := tr.open("body", runSp.ID, w.ID())
		v0 := w.Now()
		body(w, bs)
		c.bodyV[w.ID()] = w.Now() - v0
		tr.close(bs)
	})
	m.finish(&c)
	tr.close(runSp)
	if err != nil {
		c.err = fmt.Errorf("run: %w", err)
		return c
	}
	c.vtime, c.stats = rep.Elapsed, rep.Stats
	return c
}
