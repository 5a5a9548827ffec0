package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload, untraced and traced, at about
// a thirtieth of its length and with the offline population at 10⁴,
// and requires a clean run that reports every declared metric.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	cfg := runConfig{
		seed:          1,
		measure:       1500 * time.Millisecond,
		warm:          200 * time.Millisecond,
		setups:        1,
		offlineN:      10_000,
		offlineWarm:   1,
		offlineTraced: 2,
		tmp:           t.TempDir(),
		spans:         t.TempDir(),
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(w, cfg, traced)
			if raceEnabled && errors.Is(err, errNoisyHost) {
				// The race detector slows every op several times over, so
				// the dispatcher falls behind and the validity gate refuses
				// the timings; the ops ran, and any race in them was caught.
				t.Logf("%s traced=%v: %v", w, traced, err)
				continue
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			declared := endToEnd
			if traced {
				declared = perLayer
			}
			if err := checkDeclared(res, declared); err != nil {
				t.Errorf("%s traced=%v: %v", w, traced, err)
			}
			if res.failed != 0 || len(res.problems) != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w, traced, res.failed, res.attempted, res.problems)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json and
// the metrics and workloads this program reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i])
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		code []metric
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.code))
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: %s %s in BENCHMARK.json, %s %s in the program", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
