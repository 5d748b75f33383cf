package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"testing"
)

// TestSmoke runs every workload once in -quick mode (tiny runs, half a
// second of traffic, then the traced replay) and asserts that every named
// metric, end-to-end and per-layer, is reported with a finite value, that
// no operation failed and that every correctness check passed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a real server for several seconds")
	}
	o := options{seed: 7, seconds: 1, quick: true, outDir: t.TempDir()}
	o.trace = true
	for _, wl := range workloads {
		res, err := runWorkload(context.Background(), findWorkload(wl.Name), o)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", wl.Name, res.Correct, res.Failed, res.Attempted)
		}
		for _, m := range endToEnd {
			if v, ok := res.endToEnd[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present: %v), want a finite value > 0", wl.Name, m.Name, v, ok)
			}
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d layer metrics reported, %d named", wl.Name, len(res.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if v, ok := res.Metrics[m.Name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
				t.Errorf("%s: layer metric %s = %v %q (present: %v), want a finite value in %q", wl.Name, m.Name, v.Value, v.Unit, ok, m.Unit)
			}
		}
	}
}

// TestBenchmarkJSON keeps the root BENCHMARK.json equal to the tables the
// program reports from.
func TestBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no ../BENCHMARK.json beside this module")
	}
	if want := benchmarkJSON(); !bytes.Equal(got, want) {
		t.Errorf("../BENCHMARK.json differs from the tables in defs.go; regenerate it with: go run . -benchjson > ../BENCHMARK.json")
	}
}
