package main

import (
	"encoding/json"
	"os"
	"testing"
)

// A percentile is printed only when at least ten samples lie beyond it: a
// p99 needs 1,000 samples, so a p99 of 7 or 48 samples is refused.
func TestPercentileGuard(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	for _, tc := range []struct {
		n, p   int
		v      float64
		beyond int
		ok     bool
	}{
		{0, 50, 0, 0, false},
		{7, 99, 7, 0, false},
		{48, 99, 48, 0, false},
		{48, 50, 24, 24, true},
		{999, 99, 990, 9, false},
		{1000, 99, 990, 10, true},
		{16000, 99, 15840, 160, true},
		{19, 50, 10, 9, false},
		{20, 50, 10, 10, true},
	} {
		v, beyond, ok := percentile(seq(tc.n), tc.p)
		if v != tc.v || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("p%d of %d samples = (%v, %d beyond, %v), want (%v, %d, %v)",
				tc.p, tc.n, v, beyond, ok, tc.v, tc.beyond, tc.ok)
		}
	}
}

// cellPercentile reports a suppressed percentile as 0, not printed, with
// the sample counts that suppressed it.
func TestCellPercentileSuppressed(t *testing.T) {
	cs := []cell{{kv: kvSamples{put: make([]int64, 500)}}}
	st := cellPercentile(cs, 99, func(c *cell) []float64 { return ints(c.kv.put) }, 1)
	if st.Printed || st.Value != 0 || st.Samples != 500 || st.Beyond != 5 {
		t.Errorf("p99 of 500 samples = %+v, want suppressed with 500 samples, 5 beyond", st)
	}
}

// quartiles follows Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// BENCHMARK.json lists exactly the metrics the program prints, in order
// and with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []namedValue, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program prints %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEndMetrics(nil), doc.EndToEnd)
	check("per_layer", layerMetrics(nil, nil, nil), doc.PerLayer)
	names := workloadNames()
	if len(names) != len(doc.Workloads) {
		t.Fatalf("program has workloads %v, BENCHMARK.json %v", names, doc.Workloads)
	}
	for i, w := range doc.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: program %s, BENCHMARK.json %s", i, names[i], w.Name)
		}
	}
}
