package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
)

// runSteadiness runs w n times with seeds seed, seed+1, ... and prints
// each end-to-end metric's quartiles and spread (q3-q1 over the
// median) next to its bound, so two sets of runs can be compared.
func runSteadiness(w *workload, seed int64, n int, seconds float64) error {
	vals := map[string][]float64{}
	for k := 0; k < n; k++ {
		r, err := runOnce(w, seed+int64(k), seconds, 0, false)
		if err != nil {
			return err
		}
		if !r.correct {
			return fmt.Errorf("seed %d: %d of %d ops failed", r.seed, r.failed, r.attempted)
		}
		var line []string
		for _, m := range r.metrics {
			vals[m.name] = append(vals[m.name], m.v)
			line = append(line, fmt.Sprintf("%s=%.4g", m.name, m.v))
		}
		fmt.Printf("run %d seed %d: %s\n", k+1, r.seed, strings.Join(line, " "))
	}
	fmt.Printf("%-18s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, m := range endToEnd {
		q := quartiles(vals[m.name])
		spread := (q[2] - q[0]) / q[1]
		verdict := "ok"
		if spread > m.bound/3 {
			verdict = "WIDE"
		}
		fmt.Printf("%-18s %12.5g %12.5g %12.5g %8.4f %8.2f %s\n", m.name, q[0], q[1], q[2], spread, m.bound, verdict)
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// selftestOps is how many ops each self-test phase runs.
const selftestOps = 60

// runSelftest runs every workload for selftestOps ops untraced and
// traced, and fails unless every op matches the reference, the printed
// output carries every declared metric with its unit, the plan-cache
// hit ratios separate serve-hot from plan-miss, and BENCHMARK.json (when
// present in the working directory) declares the same metrics.
func runSelftest() error {
	if err := checkBenchmarkJSON("BENCHMARK.json"); err != nil {
		return err
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := runOnce(w, 1, 60, selftestOps, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			want := selftestOps
			if traced {
				want *= 2
			}
			if !r.correct || r.attempted != want {
				return fmt.Errorf("%s traced=%t: %d of %d ops failed (want %d ops)", w.name, traced, r.failed, r.attempted, want)
			}
			if err := checkPrinted(r, traced); err != nil {
				return fmt.Errorf("%s traced=%t: %w", w.name, traced, err)
			}
			if traced {
				hit := r.value("plancache.hit_ratio")
				if (w.name == "serve-hot" && hit < 0.99) || (w.name == "plan-miss" && hit >= 0.05) {
					return fmt.Errorf("%s: plancache.hit_ratio %.3f outside its expected range", w.name, hit)
				}
			}
			fmt.Printf("selftest %-10s traced=%-5t ops=%d ok\n", w.name, traced, r.attempted)
		}
	}
	fmt.Println("selftest ok")
	return nil
}

func (r *report) value(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.v
		}
	}
	return -1
}

// checkPrinted prints r and checks the text lines and the final JSON
// line carry every declared metric with its unit.
func checkPrinted(r *report, traced bool) error {
	var buf bytes.Buffer
	if err := r.print(&buf); err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return fmt.Errorf("last line is not the result object: %w", err)
	}
	if out.Correct == nil || out.Attempted == nil || out.Failed == nil {
		return errors.New("result object lacks correct, attempted or failed")
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	if len(out.Metrics) != len(specs) {
		return fmt.Errorf("result object has %d metrics, want %d", len(out.Metrics), len(specs))
	}
	for _, m := range specs {
		got, ok := out.Metrics[m.name]
		if !ok || got.Value == nil || got.Unit != m.unit {
			return fmt.Errorf("metric %s missing or without unit %s in the result object", m.name, m.unit)
		}
		if !strings.Contains(buf.String(), " "+m.name+" ") || !strings.Contains(buf.String(), " "+m.unit+"\n") {
			return fmt.Errorf("metric %s not printed with its unit", m.name)
		}
	}
	return nil
}

// checkBenchmarkJSON compares BENCHMARK.json's declared metrics with the
// ones this program reports.
func checkBenchmarkJSON(path string) error {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		fmt.Println("selftest: no BENCHMARK.json here; skipping the declaration check")
		return nil
	}
	if err != nil {
		return err
	}
	type decl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.Workloads) != len(workloads) {
		return fmt.Errorf("%s declares %d workloads, the program has %d", path, len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			return fmt.Errorf("%s workload %d is %q, the program's is %q", path, i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []decl, want []metric, bounded bool) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s declares %d %s metrics, the program reports %d", path, len(got), kind, len(want))
		}
		for i, d := range got {
			m := want[i]
			if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || (d.Bound != nil) != bounded ||
				(bounded && *d.Bound != m.bound) {
				return fmt.Errorf("%s %s metric %d is %+v, the program's is %+v", path, kind, i, d, m)
			}
		}
		return nil
	}
	if err := same("end_to_end", spec.EndToEnd, endToEnd, true); err != nil {
		return err
	}
	return same("per_layer", spec.PerLayer, perLayer, false)
}
