package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchmarkJSON is ../BENCHMARK.json, the contract the driver reads.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func (b benchmarkJSON) bound(name string) float64 {
	for _, m := range b.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestContract checks that BENCHMARK.json describes this program: the
// workloads with their reasons, and names and units within the limits
// the driver sets.
func TestContract(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !slices.Equal(b.Command, []string{"bash", "benchmark/run.sh"}) || !slices.Equal(b.Paths, []string{"benchmark"}) {
		t.Errorf("command %v over paths %v", b.Command, b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program, or their reasons differ", i, b.Workloads[i].Name, w.Name)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name, or a reason of %d characters", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	for _, m := range append(slices.Clone(b.EndToEnd), b.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q in %q: bad or repeated name, or bad unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better is %q", m.Name, m.Better)
		}
	}
	// No bound is wider than a tenth: a metric that does not repeat
	// within that needs a better estimator, not a wider bound.
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.10 {
			t.Errorf("metric %q: bound %g", m.Name, m.Bound)
		}
		if m.Name != "setup_s" && m.Bound > b.bound("setup_s") {
			t.Errorf("metric %q: bound %g is wider than that of setup_s", m.Name, m.Bound)
		}
	}
}

// TestSmoke runs every workload once at smoke size, traced, and checks
// that the run is correct and reports exactly the metrics BENCHMARK.json
// names, with its units: the whole workload × metric matrix.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		cfg := config{
			seed: 5, seconds: 1, rounds: 1, trace: true, sizes: smokeSizes,
			traceOut: t.TempDir() + "/trace.json", out: testWriter{t},
		}
		res, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed", w.Name, res.Correct, res.Failed, res.Attempted)
		}
		for _, c := range []struct {
			kind string
			want []metricJSON
			got  []metricDef
		}{{"end-to-end", b.EndToEnd, res.endToEnd}, {"per-layer", b.PerLayer, res.perLayer}} {
			if len(c.got) != len(c.want) {
				t.Errorf("%s: %d %s metrics, BENCHMARK.json names %d", w.Name, len(c.got), c.kind, len(c.want))
				continue
			}
			for i, m := range c.got {
				if m.name != c.want[i].Name || m.unit != c.want[i].Unit {
					t.Errorf("%s: %s metric %d is %q in %q, BENCHMARK.json has %q in %q", w.Name, c.kind, i, m.name, m.unit, c.want[i].Name, c.want[i].Unit)
				}
			}
		}
		for _, m := range res.endToEnd {
			if !(m.value > 0) {
				t.Errorf("%s: %s = %g, want above 0", w.Name, m.name, m.value)
			}
		}
		var trace struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		raw, err := os.ReadFile(cfg.traceOut)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("%s: trace of %d events: %v", w.Name, len(trace.TraceEvents), err)
		}
	}
}

// testWriter sends the report to the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}
