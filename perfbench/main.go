// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed wall-clock budget, checks every
// cluster it runs ("cell") against that workload's oracle, and prints one
// JSON object as the last line of standard output:
//
//	go run . --workload sor-mw-sim --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics, measured with
// no instrumentation beyond a clock read at each layer boundary. With
// --trace 1 it carries the per-layer metrics instead: half the timed cells
// then record spans around every call into the system and run under a CPU
// profile, the other half run untraced so the tracing overhead shows, and
// the spans, counters and profile shares are written as JSON to
// --trace-out. See README.md for the metric definitions.
//
// The benchmark drives the system only through its public functions
// (adsm, internal/apps, internal/kv, harness.RecoverableStencil) and times
// every layer from outside, around those calls.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed (the kv schedule seed; the other workloads have fixed inputs)")
	seconds := fs.Float64("seconds", 20, "wall-clock seconds of timed cells")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 the end-to-end metrics")
	traceOut := fs.String("trace-out", "", "trace JSON file for --trace 1 (default .bench_build/traces/<workload>-seed<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %s, --trace 0|1 and --seconds > 0\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	out := *traceOut
	if *trace == 1 && out == "" {
		out = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", wl.name, *seed))
	}
	res, err := measure(wl, *seed, false, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	if *trace == 1 {
		if err := res.writeTrace(out); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: trace written to %s\n", out)
	}
	if err := res.print(stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// minCells is the fewest timed cells a run reports, however short its
// budget: enough for a median and quartiles.
const minCells = 3

// result is one invocation's outcome: every timed cell plus the counts the
// output line reports.
type result struct {
	wl        workload
	seed      int64
	traced    bool
	attempted int
	failed    int
	failures  []string
	plain     []cell // untraced timed cells
	tracedC   []cell // traced timed cells (--trace 1 only)
	tr        *tracer
	profile   cpuShares
	steal     float64 // host steal seconds over the timed cells; negative when unknown
}

// measure prepares the workload's inputs and oracle, runs one warm-up cell
// that it checks but does not time, then timed cells until the budget is
// spent. Every timed cell starts from a freshly collected heap. In a traced
// run even-numbered cells run untraced and odd-numbered ones traced, under
// the CPU profile.
func measure(wl workload, seed int64, small bool, budget time.Duration, traced bool) (*result, error) {
	runner, err := wl.prepare(seed, small)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	res := &result{wl: wl, seed: seed, traced: traced}
	if traced {
		res.tr = newTracer()
	}
	record := func(c cell) {
		res.attempted++
		if c.err != nil {
			res.failed++
			res.failures = append(res.failures, c.err.Error())
		}
	}
	runtime.GC()
	record(runner.cell(nil))

	steal0, stealErr := readSteal()
	deadline := time.Now().Add(budget)
	for i := 0; ; i++ {
		trace := traced && i%2 == 1
		if time.Now().After(deadline) && len(res.plain) >= minCells && (!traced || len(res.tracedC) >= minCells) {
			break
		}
		runtime.GC()
		var c cell
		if trace {
			c, err = res.tracedCell(runner)
			if err != nil {
				return nil, err
			}
			res.tracedC = append(res.tracedC, c)
		} else {
			c = runner.cell(nil)
			res.plain = append(res.plain, c)
		}
		record(c)
	}
	res.steal = -1
	if steal1, err := readSteal(); err == nil && stealErr == nil {
		res.steal = steal1 - steal0
	}
	return res, nil
}

// tracedCell runs one cell with spans on and the CPU profile running, and
// folds the profile into the run's layer shares.
func (res *result) tracedCell(runner cellRunner) (cell, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return cell{}, fmt.Errorf("cpu profile: %w", err)
	}
	res.tr.cluster++
	c := runner.cell(res.tr)
	pprof.StopCPUProfile()
	shares, err := foldProfile(buf.Bytes())
	if err != nil {
		return cell{}, fmt.Errorf("cpu profile: %w", err)
	}
	res.profile.add(shares)
	return c, nil
}

// metric is one named value in the output line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the benchmark's last line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the diagnostics line, then the result line. Failures are
// listed on stderr; they make the result incorrect without aborting it.
func (res *result) print(stdout, stderr io.Writer) error {
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "perfbench: failed cell: %s\n", f)
	}
	var ms []namedValue
	if res.traced {
		ms = layerMetrics(res.tracedC, res.plain, res.profile)
	} else {
		ms = endToEndMetrics(res.plain)
	}
	out := output{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metric, len(ms)),
	}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		fmt.Fprintf(stderr, "%-24s %14.6g %s\n", m.name, m.value, m.unit)
	}
	diag, err := json.Marshal(map[string]any{"diagnostics": res.diagnostics()})
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", diag, line)
	return err
}

// writeTrace writes the traced run's spans, counters and profile shares.
func (res *result) writeTrace(path string) error {
	counters := map[string]metric{}
	for _, m := range layerMetrics(res.tracedC, res.plain, res.profile) {
		counters[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	doc := map[string]any{
		"workload":      res.wl.name,
		"seed":          res.seed,
		"spans":         res.tr.spans,
		"spans_dropped": res.tr.dropped,
		"counters":      counters,
		"cpu_samples":   res.profile,
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// readSteal returns the host's cumulative steal time in seconds from the
// aggregate cpu line of /proc/stat (USER_HZ ticks).
func readSteal() (float64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, errors.New("/proc/stat: no aggregate cpu line")
	}
	var ticks float64
	if _, err := fmt.Sscan(f[8], &ticks); err != nil {
		return 0, fmt.Errorf("/proc/stat steal: %w", err)
	}
	return ticks / 100, nil
}
