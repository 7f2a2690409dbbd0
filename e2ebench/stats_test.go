package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.1, 1}, {99.9, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // 10 beyond p99.9
		{9999, 99},    // 9.999 beyond p99.9: too few
		{1000, 99},
		{999, 95},
		{200, 95},
		{199, 90},
		{100, 90},
		{40, 75},
		{20, 50},
		{5, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median(3,1,2) = %g", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g, want 2.5", got)
	}
}

func TestCheckName(t *testing.T) {
	for _, ok := range []string{"op_p50_us", "storage.buffer_hit_ratio", "self.txn.commit_us", "9lives", "a-b"} {
		if err := checkName(ok); err != nil {
			t.Errorf("checkName(%q): %v", ok, err)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "ops/s", "µs", string(long)} {
		if err := checkName(bad); err == nil {
			t.Errorf("checkName(%q) accepted an invalid name", bad)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the
// benchmark's runner reads, in step with what the program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
	same := func(kind string, json []metric, defs []metricDef) {
		if len(json) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(json), len(defs))
			return
		}
		for i, d := range defs {
			if json[i].Name != d.name || json[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, json[i].Name, json[i].Unit, d.name, d.unit)
			}
			if json[i].Better != "lower" && json[i].Better != "higher" {
				t.Errorf("%s: better = %q", d.name, json[i].Better)
			}
			if err := checkName(d.name); err != nil {
				t.Error(err)
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eMetrics)
	same("per_layer", b.PerLayer, layerMetrics)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, e2eMetrics...), layerMetrics...) {
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
}
