package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the subset of BENCHMARK.json the smoke test checks
// against the metrics and workloads the program defines.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the program's metric
// and workload tables in step: same names, same units, same order.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program defines %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program defines %d", kind, len(file), len(defs))
			return
		}
		for i, m := range file {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestSmoke runs every workload untraced and traced at tiny sizes (a
// 64 KiB LLC, sub-second windows) and asserts that every metric is
// emitted with its unit, the oracle checked gets with no mismatch, no op
// failed, and each workload met its regime.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds")
	}
	for _, spec := range workloads {
		for _, traced := range []bool{false, true} {
			name := spec.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := &config{
					spec: spec, seed: 7, seconds: 1, llcBytes: 64 << 10,
					warmFrames: 16, setups: 2, workers: 2, spansDir: t.TempDir(),
				}
				var out bytes.Buffer
				res, err := execute(cfg, traced, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				if res.Verified == 0 || !strings.Contains(out.String(), " 0 mismatches") {
					t.Fatalf("oracle did not run cleanly (verified %d)\n%s", res.Verified, out.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("emitted %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
				}
				if !traced && res.Metrics["ops_per_s"].Value <= 0 {
					t.Errorf("ops_per_s = %v", res.Metrics["ops_per_s"].Value)
				}
			})
		}
	}
}
