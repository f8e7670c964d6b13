package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSpecMatchesProgram holds BENCHMARK.json and the program's own metric
// and workload tables together.
func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if fmt.Sprint(names) != fmt.Sprint(specNames) {
		t.Errorf("workloads: program has %v, BENCHMARK.json has %v", names, specNames)
	}
	check := func(kind string, defs []metricDef, listed []specMetric, bounded bool) {
		if len(defs) != len(listed) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json has %d", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s[%d]: program has %s (%s), BENCHMARK.json has %s (%s)", kind, i, d.name, d.unit, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: bound must be set in (0, 0.25] on end-to-end metrics only", m.Name)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd, true)
	check("per_layer", perLayer, spec.PerLayer, false)
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
}

// TestSmoke runs every workload, end to end and traced, on two seeds at a
// scale that takes milliseconds: no op may fail against the reference, and
// every metric BENCHMARK.json names must be printed exactly once with its
// unit and appear in the result line.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	outDir := t.TempDir()
	for _, seed := range []int64{7, 11} {
		for _, w := range workloads() {
			for _, trace := range []bool{false, true} {
				name := fmt.Sprintf("%s/seed=%d/trace=%t", w.name, seed, trace)
				t.Run(name, func(t *testing.T) {
					o := options{workload: w.name, seed: seed, users: 60, cartsPerUser: 8, seconds: 0.05, trace: trace, outDir: outDir}
					var buf bytes.Buffer
					if err := run(o, &buf); err != nil {
						t.Fatal(err)
					}
					listed := spec.EndToEnd
					if trace {
						listed = spec.PerLayer
					}
					res := checkOutput(t, buf.String(), listed)
					if trace && w.name == "cached_stream" && res.Metrics["cache.hit_ratio"].Value != 1 {
						t.Errorf("cache.hit_ratio = %v, want 1", res.Metrics["cache.hit_ratio"].Value)
					}
					if trace {
						if _, err := os.Stat(outDir + "/trace-" + w.name + ".json"); err != nil {
							t.Error(err)
						}
					}
				})
			}
		}
	}
}

func checkOutput(t *testing.T, out string, listed []specMetric) result {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
	}
	printed := map[string][]string{}
	for _, line := range lines[:len(lines)-1] {
		if f := strings.Fields(line); len(f) == 3 && !strings.HasPrefix(line, "#") {
			printed[f[0]] = append(printed[f[0]], f[2])
		}
	}
	for _, m := range listed {
		if got := printed[m.Name]; len(got) != 1 || got[0] != m.Unit {
			t.Errorf("metric %s printed with units %v, want once with %s", m.Name, got, m.Unit)
		}
		v, ok := res.Metrics[m.Name]
		if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("result line has %s = %+v (present %t), want a finite number in %s", m.Name, v, ok, m.Unit)
		}
	}
	if len(res.Metrics) != len(listed) {
		var extra []string
		for name := range res.Metrics {
			extra = append(extra, name)
		}
		sort.Strings(extra)
		t.Errorf("result line has %d metrics, BENCHMARK.json lists %d: %v", len(res.Metrics), len(listed), extra)
	}
	return res
}

// TestQuartileSpread pins the calibration's spread to the quartiles
// Python's statistics.quantiles(v, n=4) gives.
func TestQuartileSpread(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64 // (q3 - q1) / median
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 1, 7, 3, 8}, (9.0 - 2.0) / 7},
		{[]float64{2, 4}, (4.5 - 1.5) / 3},
	} {
		if got := quartileSpread(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

// TestReferenceCatchesWrongData makes sure the oracle is not vacuous: a
// dataset with one feature off by one bit, or one row short, must differ.
func TestReferenceCatchesWrongData(t *testing.T) {
	var a, b, c digest
	a.add(1, 30, 1, 0, 12.5)
	a.add(0, 41, 0, 1, 99.99)
	b.add(0, 41, 0, 1, 99.99)
	b.add(1, 30, 1, 0, math.Nextafter(12.5, 13))
	c.add(1, 30, 1, 0, 12.5)
	if compareDigest(a, b) == nil || compareDigest(a, c) == nil {
		t.Error("digest does not tell different datasets apart")
	}
	var d digest
	d.add(0, 41, 0, 1, 99.99)
	d.add(1, 30, 1, 0, 12.5)
	if err := compareDigest(a, d); err != nil {
		t.Errorf("digest depends on row order: %v", err)
	}
}
