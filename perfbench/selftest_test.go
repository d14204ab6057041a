package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
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

// TestMain lets the test binary serve as the benchmark's pass process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--pass" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestShortMode runs every workload at self-test size (a 2x2x2 torus, one
// point per sweep), untraced and traced. It asserts that every output
// check passes, that each run prints exactly the metrics BENCHMARK.json
// names with their units, and that the traced run's host shares cover
// all of its CPU samples.
func TestShortMode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the driver has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("workload %q has no driver", w.Name)
		}
		passes := childPasses(w.Name, true)
		t.Run(w.Name, func(t *testing.T) {
			plain, err := bench(passes, 7, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, plain, bf.EndToEnd)

			// Long enough for the profiles of the tiny passes to collect
			// samples.
			traced, err := bench(passes, 7, 3*time.Second, true)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, traced, bf.PerLayer)
			if v := traced.Metrics["err_frac"].Value; v != 0 {
				t.Errorf("err_frac = %v", v)
			}
			var sum float64
			for name, m := range traced.Metrics {
				if strings.HasSuffix(name, "_share") {
					sum += m.Value
				}
			}
			if math.Abs(sum-100) > 1e-6 {
				t.Errorf("host shares sum to %v%%, want 100%%", sum)
			}
		})
	}
}

func checkResult(t *testing.T, r *result, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not printed", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
	}
}
