package main

import (
	"sort"
	"time"
)

// namedValue is one reported metric.
type namedValue struct {
	name, unit string
	value      float64
}

const mib = 1 << 20

// minBeyond is the fewest samples that must lie beyond a percentile for it
// to be printed: a p99 needs at least 1,000 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (p in percent) of
// samples and how many samples lie beyond it. ok is false, and the value
// must not be printed, when fewer than minBeyond samples lie beyond it.
func percentile(samples []float64, p int) (v float64, beyond int, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := max((p*n+99)/100, 1) // 1-based rank: ceil(p*n/100)
	beyond = n - k
	return s[k-1], beyond, beyond >= minBeyond
}

// quartiles returns the first, second and third quartiles of values by the
// "exclusive" method of Python's statistics.quantiles(values, n=4), the
// rule the benchmark's spread is judged by.
func quartiles(values []float64) [3]float64 {
	var q [3]float64
	n := len(values)
	if n == 0 {
		return q
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// good returns the cells that passed their oracle check; only they are
// measured.
func good(cs []cell) []cell {
	var out []cell
	for _, c := range cs {
		if c.err == nil {
			out = append(out, c)
		}
	}
	return out
}

// med is the median over cells of one per-cell value.
func med(cs []cell, f func(c *cell) float64) float64 {
	v := make([]float64, len(cs))
	for i := range cs {
		v[i] = f(&cs[i])
	}
	return median(v)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pctStat is a percentile with the sample counts the guard looked at.
type pctStat struct {
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"`
	Printed bool    `json:"printed"`
}

// cellPercentile is the median over cells of each cell's p-th percentile
// of samples, scaled by scale. A percentile the guard suppresses in any
// cell is reported as 0 and not printed.
func cellPercentile(cs []cell, p int, samples func(c *cell) []float64, scale float64) pctStat {
	var st pctStat
	st.Printed = len(cs) > 0
	vals := make([]float64, len(cs))
	for i := range cs {
		s := samples(&cs[i])
		v, beyond, ok := percentile(s, p)
		vals[i] = v * scale
		st.Samples, st.Beyond = len(s), beyond
		st.Printed = st.Printed && ok
	}
	if st.Printed {
		st.Value = median(vals)
	}
	return st
}

func ints(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func durs(xs []time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// The percentiles the benchmark reports, in one place so the metrics and
// the diagnostics agree.
var percentiles = []struct {
	name, unit string
	p          int
	samples    func(c *cell) []float64
	scale      float64
}{
	{"vop_p50_us", "vus", 50, func(c *cell) []float64 { return ints(c.kv.vop) }, 1e-3},
	{"vop_p99_us", "vus", 99, func(c *cell) []float64 { return ints(c.kv.vop) }, 1e-3},
	{"kv.get_vus_p50", "vus", 50, func(c *cell) []float64 { return ints(c.kv.get) }, 1e-3},
	{"kv.get_vus_p99", "vus", 99, func(c *cell) []float64 { return ints(c.kv.get) }, 1e-3},
	{"kv.put_vus_p50", "vus", 50, func(c *cell) []float64 { return ints(c.kv.put) }, 1e-3},
	{"kv.put_vus_p99", "vus", 99, func(c *cell) []float64 { return ints(c.kv.put) }, 1e-3},
	{"kv.late_vus_p99", "vus", 99, func(c *cell) []float64 { return ints(c.kv.late) }, 1e-3},
	{"ckpt.step_ms_p50", "ms", 50, func(c *cell) []float64 { return durs(c.ckpt.step) }, 1e-6},
	{"ckpt.sync_ckpt_ms_p50", "ms", 50, func(c *cell) []float64 { return durs(c.ckpt.syncCkpt) }, 1e-6},
	{"ckpt.sync_ms_p50", "ms", 50, func(c *cell) []float64 { return durs(c.ckpt.sync) }, 1e-6},
}

// endToEndMetrics are the untraced run's user-visible numbers: medians
// over the timed cells.
func endToEndMetrics(cells []cell) []namedValue {
	cs := good(cells)
	return []namedValue{
		{"setup_s", "s", med(cs, func(c *cell) float64 { return c.setup.Seconds() })},
		{"run_s", "s", med(cs, func(c *cell) float64 { return c.run.Seconds() })},
		{"cpu_s", "s", med(cs, func(c *cell) float64 { return c.cpu.Seconds() })},
		{"alloc_mb", "MB", med(cs, func(c *cell) float64 { return float64(c.rt.allocBytes) / mib })},
		{"vtime_s", "vs", med(cs, func(c *cell) float64 { return c.vtime.Seconds() })},
	}
}

// layerMetrics are the traced run's per-layer numbers: medians over the
// traced cells, the CPU profile's layer shares, and the tracing overhead
// against the run's untraced cells.
func layerMetrics(traced, plain []cell, prof cpuShares) []namedValue {
	cs := good(traced)
	stat := func(f func(s *cell) int64) float64 {
		return med(cs, func(c *cell) float64 { return float64(f(c)) })
	}
	lane := func(c *cell, i int) int64 {
		if i < len(c.stats.LaneBytes) {
			return c.stats.LaneBytes[i]
		}
		return 0
	}
	bodyV := func(longest bool) func(c *cell) float64 {
		return func(c *cell) float64 {
			if len(c.bodyV) == 0 {
				return 0
			}
			v := c.bodyV[0]
			for _, b := range c.bodyV[1:] {
				if (b > v) == longest {
					v = b
				}
			}
			return ms(v)
		}
	}
	out := []namedValue{
		{"setup.cluster_ms", "ms", med(cs, func(c *cell) float64 { return ms(c.clusterSetup) })},
		{"setup.alloc_ms", "ms", med(cs, func(c *cell) float64 { return ms(c.allocSetup) })},
		{"core.twins", "count", stat(func(c *cell) int64 { return c.stats.TwinsCreated })},
		{"core.diffs", "count", stat(func(c *cell) int64 { return c.stats.DiffsCreated })},
		{"core.diff_mb", "MB", stat(func(c *cell) int64 { return c.stats.TwinBytes + c.stats.DiffBytes }) / mib},
		{"core.write_faults", "count", stat(func(c *cell) int64 { return c.stats.WriteFaults })},
		{"core.read_faults", "count", stat(func(c *cell) int64 { return c.stats.ReadFaults })},
		{"core.page_fetches", "count", stat(func(c *cell) int64 { return c.stats.PageFetches })},
		{"core.diffs_applied", "count", stat(func(c *cell) int64 { return c.stats.DiffsApplied })},
		{"core.msgs", "count", stat(func(c *cell) int64 { return c.stats.Messages })},
		{"core.data_mb", "MB", stat(func(c *cell) int64 { return c.stats.DataBytes }) / mib},
		{"core.lock_acquires", "count", stat(func(c *cell) int64 { return c.stats.LockAcquires })},
		{"core.gc_runs", "count", stat(func(c *cell) int64 { return c.stats.GCRuns })},
		{"core.checkpoints", "count", stat(func(c *cell) int64 { return c.stats.Checkpoints })},
		{"core.body_vms_max", "vms", med(cs, bodyV(true))},
		{"core.body_vms_min", "vms", med(cs, bodyV(false))},
	}
	for _, p := range percentiles {
		out = append(out, namedValue{p.name, p.unit, cellPercentile(cs, p.p, p.samples, p.scale).Value})
	}
	out = append(out,
		namedValue{"kv.get_hit_ratio", "ratio", med(cs, func(c *cell) float64 {
			if c.kv.gets == 0 {
				return 0
			}
			return float64(c.kv.hits) / float64(c.kv.gets)
		})},
		namedValue{"tcp.frames", "count", stat(func(c *cell) int64 { return c.stats.WireFrames })},
		namedValue{"tcp.wire_mb", "MB", stat(func(c *cell) int64 { return c.stats.WireBytes }) / mib},
		namedValue{"tcp.wire_per_model", "ratio", med(cs, func(c *cell) float64 {
			if c.stats.WireBytes == 0 || c.stats.DataBytes == 0 {
				return 0
			}
			return float64(c.stats.WireBytes) / float64(c.stats.DataBytes)
		})},
		namedValue{"tcp.encode_ms", "ms", stat(func(c *cell) int64 { return c.stats.WireEncodeNS }) / 1e6},
		namedValue{"tcp.control_mb", "MB", stat(func(c *cell) int64 { return lane(c, 0) }) / mib},
		namedValue{"tcp.bulk_mb", "MB", stat(func(c *cell) int64 { return lane(c, 1) }) / mib},
		namedValue{"tcp.region_mb", "MB", stat(func(c *cell) int64 {
			if len(c.stats.LaneBytes) < 3 {
				return 0
			}
			return lane(c, len(c.stats.LaneBytes)-1)
		}) / mib},
		namedValue{"tcp.bulk_hwm", "frames", stat(func(c *cell) int64 {
			if len(c.stats.LaneQueueHWM) < 2 {
				return 0
			}
			return c.stats.LaneQueueHWM[1]
		})},
		namedValue{"tcp.one_sided_reads", "count", stat(func(c *cell) int64 { return c.stats.OneSidedReads })},
		namedValue{"tcp.one_sided_fallbacks", "count", stat(func(c *cell) int64 { return c.stats.OneSidedFallbacks })},
		namedValue{"gc.cycles", "count", med(cs, func(c *cell) float64 { return float64(c.rt.gcCycles) })},
		namedValue{"gc.cpu_s", "s", med(cs, func(c *cell) float64 { return c.rt.gcCPU })},
		namedValue{"gc.alloc_objects", "count", med(cs, func(c *cell) float64 { return float64(c.rt.allocObjects) })},
	)
	for _, l := range cpuLayers {
		out = append(out, namedValue{"cpu." + l + "_pct", "%", prof.pct(l)})
	}
	tracedRun := med(cs, func(c *cell) float64 { return c.run.Seconds() })
	plainRun := med(good(plain), func(c *cell) float64 { return c.run.Seconds() })
	overhead := 0.0
	if plainRun > 0 {
		overhead = (tracedRun/plainRun - 1) * 100
	}
	return append(out,
		namedValue{"trace.run_s", "s", tracedRun},
		namedValue{"trace.overhead_pct", "%", overhead})
}

// diagnostics are the noise figures printed beside the metrics: every
// timed cell's run time and their quartiles, host steal time over the
// timed cells, and each percentile with the sample counts behind it. They
// are not gated.
func (res *result) diagnostics() map[string]any {
	runs := func(cs []cell) []float64 {
		out := make([]float64, len(cs))
		for i, c := range cs {
			out[i] = c.run.Seconds()
		}
		return out
	}
	d := map[string]any{
		"workload":        res.wl.name,
		"seed":            res.seed,
		"cell_run_s":      runs(res.plain),
		"run_s_quartiles": quartiles(runs(res.plain)),
		"steal_s":         res.steal,
	}
	cs := good(res.plain)
	if res.traced {
		d["traced_cell_run_s"] = runs(res.tracedC)
		d["traced_run_s_quartiles"] = quartiles(runs(res.tracedC))
		d["spans"], d["spans_dropped"] = len(res.tr.spans), res.tr.dropped
		cs = good(res.tracedC)
	}
	pcts := map[string]pctStat{}
	for _, p := range percentiles {
		if st := cellPercentile(cs, p.p, p.samples, p.scale); st.Samples > 0 {
			pcts[p.name] = st
		}
	}
	d["percentiles"] = pcts
	return d
}
