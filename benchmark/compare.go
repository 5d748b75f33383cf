package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkSpec() (*benchmarkSpec, error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &spec, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// readRecords groups a -json file's values by workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (its default, exclusive method) — the rule the driver applies.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// compareFiles prints, per workload and metric, both medians, the change,
// the first file's own quartile spread, the bound BENCHMARK.json fixes,
// and a verdict: "unresolved" when the first file's spread exceeds the
// bound (the runs cannot tell a change of that size from noise),
// "WORSE" when the second median is worse than the first by more than the
// bound, "ok" otherwise. Layer metrics have no bound and get no verdict.
func compareFiles(w io.Writer, pathA, pathB string) error {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		return err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	type rule struct {
		better string
		bound  float64
	}
	rules := map[string]rule{}
	var order []string
	for _, m := range spec.EndToEnd {
		rules[m.Name] = rule{m.Better, m.Bound}
		order = append(order, m.Name)
	}
	for _, m := range spec.PerLayer {
		rules[m.Name] = rule{m.Better, 0}
		order = append(order, m.Name)
	}
	fmt.Fprintf(w, "%-15s %-34s %4s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "runs", "median A", "median B", "change", "spread A", "bound", "verdict")
	worse := 0
	for _, wl := range workloads {
		for _, name := range order {
			xa, xb := a[wl.Name][name], b[wl.Name][name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			q1, ma, q3 := quartiles(xa)
			_, mb, _ := quartiles(xb)
			if ma == 0 && mb == 0 {
				continue // a layer this workload does not exercise
			}
			r := rules[name]
			change, spread := math.NaN(), math.NaN()
			if ma != 0 {
				change = (mb - ma) / math.Abs(ma)
				spread = (q3 - q1) / math.Abs(ma)
			}
			verdict := ""
			if r.bound > 0 {
				bad := change
				if r.better == "higher" {
					bad = -change
				}
				switch {
				case spread > r.bound:
					verdict = "unresolved"
				case bad > r.bound:
					verdict = "WORSE"
					worse++
				default:
					verdict = "ok"
				}
			}
			bound := ""
			if r.bound > 0 {
				bound = fmt.Sprintf("%.2f", r.bound)
			}
			fmt.Fprintf(w, "%-15s %-34s %2d/%-2d %12.5g %12.5g %+7.1f%% %7.1f%% %6s  %s\n", wl.Name, name, len(xa), len(xb), ma, mb, 100*change, 100*spread, bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d gated (metric, workload) pairs are worse by more than their bound", worse)
	}
	return nil
}
