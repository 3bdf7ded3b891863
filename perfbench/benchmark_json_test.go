package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON keeps BENCHMARK.json, at the repository root, in step
// with the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
	var setup float64
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setup {
			t.Errorf("%s: bound %v must be in (0, 0.25] and at most setup_s's %v", m.Name, m.Bound, setup)
		}
	}
}

func TestCPUShares(t *testing.T) {
	top := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 2.49s, 100% of 2.49s total
      flat  flat%   sum%        cum   cum%
     0.61s 24.50% 24.50%      0.87s 34.94%  repro/internal/monitor.QueryRecord.SLAMet (inline)
     0.27s 10.84% 35.34%      0.35s 14.06%  repro/internal/cluster.(*Pool).FailedNodesOf
     0.20s  8.03% 43.37%      0.20s  8.03%  repro/internal/recovery/chaos.run
     0.10s  4.02% 47.39%      0.10s  4.02%  runtime.memclrNoHeapPointers
     0.05s  2.01% 49.40%      0.05s  2.01%  encoding/json.(*decodeState).object
`)
	shares, err := cpuShares(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"monitor": 24.50, "cluster": 10.84, "other_internal": 8.03, "go_runtime": 4.02, "encoding_json": 2.01, "mppdb": 0, "other": 0}
	for k, v := range want {
		if shares[k] != v {
			t.Errorf("share %s = %v, want %v", k, shares[k], v)
		}
	}
}
