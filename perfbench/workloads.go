package main

import (
	"fmt"
	"time"

	"adsm"
	"adsm/internal/apps"
	"adsm/internal/harness"
	"adsm/internal/kv"
)

// workload is one set of inputs the benchmark runs. prepare generates the
// inputs from the seed and computes the oracle every cell is checked
// against; small selects reduced inputs for tests and smoke runs.
type workload struct {
	name    string
	prepare func(seed int64, small bool) (cellRunner, error)
}

var workloads = []workload{
	{"sor-mw-sim", prepareSOR},
	{"kv-mw-sim", prepareKV},
	{"ckpt-hlrc-tcp", prepareCkpt},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// simProcs is the simulated cluster size: the paper's 8 nodes. The
// simulator runs one node goroutine at a time, so 8 nodes fit 2 cores.
const simProcs = 8

// sorRunner is sor-mw-sim: Red-Black SOR under MW on 8 simulated nodes,
// checked against the 1-node run. Its inputs are fixed; the seed is unused.
type sorRunner struct {
	small bool
	want  float64
}

func prepareSOR(_ int64, small bool) (cellRunner, error) {
	app, _, err := apps.Run(func(q bool) apps.App { return apps.NewSOR(q) },
		adsm.Config{Procs: 1, Protocol: adsm.MW}, small)
	if err != nil {
		return nil, fmt.Errorf("sor oracle: %w", err)
	}
	return &sorRunner{small: small, want: app.Result()}, nil
}

// sorTolerance is the relative checksum tolerance the evaluation matrix
// allows SOR against its sequential run.
const sorTolerance = 1e-8

func (r *sorRunner) cell(tr *tracer) cell {
	app := apps.NewSOR(r.small)
	c := runCluster(tr, adsm.Config{Procs: simProcs, Protocol: adsm.MW}, app.Setup,
		func(w *adsm.Worker, _ span) { app.Body(w) })
	if got := app.Result(); c.err == nil && !closeEnough(got, r.want, sorTolerance) {
		c.err = fmt.Errorf("sor checksum %v != 1-node %v", got, r.want)
	}
	return c
}

// closeEnough reports whether a is within tol of b, relative to b.
func closeEnough(a, b, tol float64) bool {
	diff, mag := a-b, b
	if diff < 0 {
		diff = -diff
	}
	if mag < 0 {
		mag = -mag
	}
	return diff <= mag*tol+1e-12
}

// kvRunner is kv-mw-sim: the zipfian store at kv.DefaultWorkload under MW
// on 8 simulated nodes, open loop in virtual time. The seed is the
// schedule seed; schedules are generated once, before any cell.
type kvRunner struct {
	wl    kv.Workload
	sched [][]kv.Op
	want  uint64
}

func prepareKV(seed int64, small bool) (cellRunner, error) {
	wl := kvWorkload(seed, small)
	r := &kvRunner{wl: wl, sched: make([][]kv.Op, simProcs), want: wl.ExpectedChecksum(simProcs)}
	for id := range r.sched {
		r.sched[id] = wl.Schedule(id, simProcs)
	}
	return r, nil
}

func kvWorkload(seed int64, small bool) kv.Workload {
	wl := kv.DefaultWorkload()
	wl.Seed = seed
	if small {
		wl.Keys, wl.OpsPerWorker = 512, 250
	}
	return wl
}

// kvSamples holds the virtual-time samples of one cell's serving loop, in
// nanoseconds of virtual time.
type kvSamples struct {
	vop  []int64 // scheduled arrival to completion, every op
	get  []int64 // around Table.Get
	put  []int64 // around Table.Put
	late []int64 // how late each op was issued after its arrival
	gets int
	hits int
}

func (s *kvSamples) merge(o *kvSamples) {
	s.vop = append(s.vop, o.vop...)
	s.get = append(s.get, o.get...)
	s.put = append(s.put, o.put...)
	s.late = append(s.late, o.late...)
	s.gets += o.gets
	s.hits += o.hits
}

func (r *kvRunner) cell(tr *tracer) cell {
	var table *kv.Table
	var sum uint64
	nodes := make([]kvSamples, simProcs)
	c := runCluster(tr, adsm.Config{Procs: simProcs, Protocol: adsm.MW},
		func(cl *adsm.Cluster) { table = kv.New(cl, r.wl.Keys, 0) },
		func(w *adsm.Worker, parent span) {
			r.serve(w, table, tr, parent, &nodes[w.ID()])
			if w.ID() == 0 {
				sp := tr.open("kv.Checksum", parent.ID, 0)
				sum = table.Checksum(w)
				tr.close(sp)
			}
			w.Barrier()
		})
	for i := range nodes {
		c.kv.merge(&nodes[i])
	}
	if c.err == nil && sum != r.want {
		c.err = fmt.Errorf("kv table checksum %#x != model %#x", sum, r.want)
	}
	return c
}

// serve is the benchmark's copy of the store's open-loop serving loop
// (kv.Bench.Body): operation j is due at virtual time j*Interval, the
// worker idles until it is due, and each Table call is timed in virtual
// time from outside.
func (r *kvRunner) serve(w *adsm.Worker, t *kv.Table, tr *tracer, parent span, s *kvSamples) {
	ops := r.sched[w.ID()]
	interval := r.wl.Interval
	s.vop, s.late = make([]int64, 0, len(ops)), make([]int64, 0, len(ops))
	w.Barrier()
	for j := range ops {
		op := &ops[j]
		arrival := time.Duration(j) * interval
		if now := w.Now(); now < arrival {
			w.Compute(arrival - now)
		}
		start := w.Now()
		switch op.Kind {
		case kv.OpGet:
			sp := tr.open("kv.Get", parent.ID, w.ID())
			_, ok := t.Get(w, op.Key)
			tr.close(sp)
			s.gets++
			if ok {
				s.hits++
			}
			s.get = append(s.get, int64(w.Now()-start))
		case kv.OpPut:
			sp := tr.open("kv.Put", parent.ID, w.ID())
			t.Put(w, op.Key, op.Val)
			tr.close(sp)
			s.put = append(s.put, int64(w.Now()-start))
		case kv.OpDelete:
			sp := tr.open("kv.Delete", parent.ID, w.ID())
			t.Delete(w, op.Key)
			tr.close(sp)
		}
		s.late = append(s.late, int64(start-arrival))
		s.vop = append(s.vop, int64(w.Now()-arrival))
	}
	w.Barrier()
}

// ckptRunner is ckpt-hlrc-tcp: the recoverable stencil with whole-page
// rows under HLRC on a 2-node in-process tcp mesh, checkpointing at every
// 2nd barrier, run through RunRecoverable with an empty fault plan. The
// oracle is a simulator run of the same program, which also supplies the
// virtual times. Its inputs are fixed; the seed is unused.
type ckptRunner struct {
	rowsPer, steps int
	want           uint64
	vtime          time.Duration
	bodyV          []time.Duration
}

const (
	ckptProcs = 2                 // the tcp mesh: one node per core
	ckptWords = adsm.PageSize / 8 // whole-page rows
	ckptEvery = 2                 // checkpoint at every 2nd barrier, as -exp faults does
)

func prepareCkpt(_ int64, small bool) (cellRunner, error) {
	r := &ckptRunner{rowsPer: 128, steps: 24}
	if small {
		r.rowsPer, r.steps = 4, 8
	}
	var sum uint64
	p := newStencilProbe(ckptProcs, nil, nil, 0)
	rep, err := adsm.RunRecoverable(adsm.Config{Procs: ckptProcs, Protocol: adsm.HLRC},
		p.wrap(r.stencil(&sum)), adsm.FaultPlan{})
	if err != nil {
		return nil, fmt.Errorf("ckpt sim oracle: %w", err)
	}
	r.want, r.vtime, r.bodyV = sum, rep.Elapsed, p.bodyV()
	return r, nil
}

func (r *ckptRunner) stencil(sum *uint64) adsm.Recoverable {
	return harness.RecoverableStencil(ckptProcs, r.rowsPer, ckptWords, r.steps, ckptEvery, sum)
}

// ckptSamples holds the wall-clock step timings of one cell.
type ckptSamples struct {
	step     []time.Duration // around each Step
	syncCkpt []time.Duration // Step end to the node's next Step, across a checkpointing barrier
	sync     []time.Duration // the same across a plain barrier
}

func (r *ckptRunner) cell(tr *tracer) (c cell) {
	defer recoverCell(&c)
	root := tr.open("cell", 0, -1)
	defer tr.close(root)

	var sum uint64
	sp := tr.open("harness.RecoverableStencil", root.ID, -1)
	prog := r.stencil(&sum)
	tr.close(sp)
	m := startMeter()
	runSp := tr.open("adsm.RunRecoverable", root.ID, -1)
	p := newStencilProbe(ckptProcs, m, tr, runSp.ID)
	rep, err := adsm.RunRecoverable(
		adsm.Config{Procs: ckptProcs, Protocol: adsm.HLRC, Transport: adsm.TCPTransport},
		p.wrap(prog), adsm.FaultPlan{})
	m.finish(&c)
	tr.close(runSp)
	c.clusterSetup = p.setupStart.Sub(m.t0)
	c.allocSetup = p.setupEnd.Sub(p.setupStart)
	c.ckpt = p.samples()
	c.vtime, c.bodyV = r.vtime, r.bodyV
	if err != nil {
		c.err = fmt.Errorf("run: %w", err)
		return c
	}
	c.stats = rep.Stats
	if sum != r.want {
		c.err = fmt.Errorf("stencil checksum %#x != sim oracle %#x", sum, r.want)
	}
	return c
}

// stencilProbe wraps a Recoverable's hooks with the benchmark's clocks:
// wall time around Setup and each Step, the gap between a node's Steps,
// and each node's virtual body time. m and tr may be nil.
type stencilProbe struct {
	m      *meter
	tr     *tracer
	parent int64

	setupStart, setupEnd time.Time // the first incarnation's Setup
	nodes                []probeNode
}

// probeNode is one node's state; only that node's worker writes it.
type probeNode struct {
	lastEnd  time.Time
	lastStep int
	v0, v1   time.Duration
	ckptSamples
}

func newStencilProbe(procs int, m *meter, tr *tracer, parent int64) *stencilProbe {
	return &stencilProbe{m: m, tr: tr, parent: parent, nodes: make([]probeNode, procs)}
}

func (p *stencilProbe) wrap(prog adsm.Recoverable) adsm.Recoverable {
	setup, step, finish := prog.Setup, prog.Step, prog.Finish
	every := prog.CkptEvery
	prog.Setup = func(cl *adsm.Cluster) {
		t := time.Now()
		sp := p.tr.open("setup", p.parent, -1)
		setup(cl)
		p.tr.close(sp)
		if p.setupStart.IsZero() {
			p.setupStart, p.setupEnd = t, time.Now()
		}
	}
	prog.Step = func(w *adsm.Worker, s int) {
		if p.m != nil {
			p.m.markFirst()
		}
		n := &p.nodes[w.ID()]
		start := time.Now()
		if n.lastEnd.IsZero() {
			n.v0 = w.Now()
		} else if gap := start.Sub(n.lastEnd); (n.lastStep+1)%every == 0 {
			n.syncCkpt = append(n.syncCkpt, gap)
		} else {
			n.sync = append(n.sync, gap)
		}
		sp := p.tr.open("step", p.parent, w.ID())
		step(w, s)
		p.tr.close(sp)
		n.lastEnd, n.lastStep = time.Now(), s
		n.step = append(n.step, n.lastEnd.Sub(start))
	}
	prog.Finish = func(w *adsm.Worker) {
		sp := p.tr.open("finish", p.parent, w.ID())
		finish(w)
		p.tr.close(sp)
		p.nodes[w.ID()].v1 = w.Now()
	}
	return prog
}

func (p *stencilProbe) samples() ckptSamples {
	var s ckptSamples
	for _, n := range p.nodes {
		s.step = append(s.step, n.step...)
		s.syncCkpt = append(s.syncCkpt, n.syncCkpt...)
		s.sync = append(s.sync, n.sync...)
	}
	return s
}

func (p *stencilProbe) bodyV() []time.Duration {
	out := make([]time.Duration, len(p.nodes))
	for i, n := range p.nodes {
		out[i] = n.v1 - n.v0
	}
	return out
}
