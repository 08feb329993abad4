package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors the root BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSelfTest runs every workload once, untraced and traced, on the tiny
// codexs-sim scale: one round each. It checks the harness end to end — every
// op succeeds, every check passes, every declared metric is emitted under a
// legal name — not the numbers.
func TestSelfTest(t *testing.T) {
	if len(workloadNames) != 4 || len(endToEnd) != 8 || len(perLayer) > 128 {
		t.Fatalf("counts: %d workloads, %d end-to-end, %d per-layer", len(workloadNames), len(endToEnd), len(perLayer))
	}
	for _, name := range workloadNames {
		if !nameRE.MatchString(name) {
			t.Errorf("workload name %q is outside the name charset", name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runConfig{Workload: name, Seed: 1, Seconds: 0, Trace: traced, Scale: selftestScale(1), Log: t.Logf})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := defs(traced)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s not emitted", name, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, declared %q", name, d.Name, m.Unit, d.Unit)
				case !traced && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must never read 0", name, d.Name, m.Value)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s: result does not marshal: %v", name, err)
			}
		}
	}
}

// TestBenchmarkJSON holds the root BENCHMARK.json to names.go: same
// workloads, same metrics, same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []benchmarkMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			better := "lower"
			if d.Higher {
				better = "higher"
			}
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != better {
				t.Errorf("%s %d: BENCHMARK.json %+v, harness %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: %q / %q is outside the name or unit charset", kind, d.Name, d.Unit)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound %v, harness %v (must be in (0, 0.25])", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd, true)
	compare("per_layer", file.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
}
