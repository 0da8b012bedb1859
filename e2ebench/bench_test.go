package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"qymera/internal/circuits"
	"qymera/internal/core"
	"qymera/internal/quantum"
	"qymera/internal/sim"
)

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the
// harness's workload and metric tables in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the harness %s/%s/%s", kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if (m.Bound != nil) != (kind == "end_to_end") {
				t.Errorf("%s %s: a bound belongs on end-to-end metrics only", kind, m.Name)
			}
			if kind == "per_layer" && (d.target == "" || d.workload == "") {
				t.Errorf("per-layer metric %s names no target metric or workload", d.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestReplayMatchesSQLBackend holds the traced replay to the backend it
// stands in for: the same amplitudes, bit for bit, in both SQL modes,
// with and without a plan cache.
func TestReplayMatchesSQLBackend(t *testing.T) {
	ctx := context.Background()
	cs := []*quantum.Circuit{
		circuits.GHZ(5),
		circuits.QFT(5),
		circuits.HardwareEfficientAnsatz(4, 2, []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6}),
	}
	for _, mode := range []core.Mode{core.SingleQuery, core.MaterializedChain} {
		for _, cached := range []bool{false, true} {
			p := &replayer{mode: mode}
			if cached {
				p.cache = sim.NewPlanCache(0)
			}
			for _, c := range cs {
				want, err := (&sim.SQL{Mode: mode}).RunContext(ctx, c)
				if err != nil {
					t.Fatal(err)
				}
				r := newTracer().begin("test", 0)
				got, _, err := p.replay(ctx, r, c)
				if err != nil {
					t.Fatal(err)
				}
				if d := diffStates(got, want.State); d != "" {
					t.Errorf("%s mode=%v cached=%v: %s", c.Name(), mode, cached, d)
				}
			}
		}
	}
}

func diffStates(a, b *quantum.State) string {
	if a.Len() != b.Len() {
		return "support sizes differ"
	}
	for _, s := range a.Indices() {
		x, y := a.Amplitude(s), b.Amplitude(s)
		if math.Float64bits(real(x)) != math.Float64bits(real(y)) || math.Float64bits(imag(x)) != math.Float64bits(imag(y)) {
			return "amplitudes differ"
		}
	}
	return ""
}

// TestQuickRunEveryWorkload runs a few ops of every workload, untraced
// and traced, and checks that every named metric is reported, no op
// failed, the layer spans cover the traced ops, and only out_of_core
// spills.
func TestQuickRunEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w.name, seed: 7, duration: 400 * time.Millisecond, trace: trace, setups: 1}
			rep, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			res := rep.result(trace)
			if res.Attempted == 0 || res.Failed != 0 || !res.Correct {
				t.Errorf("%s trace=%v: attempted %d, failed %d (first error: %v)", w.name, trace, res.Attempted, res.Failed, rep.firstErr)
			}
			if !trace && rep.values["failed_frac"] != 0 {
				t.Errorf("%s: failed_frac = %v", w.name, rep.values["failed_frac"])
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, present %v", w.name, trace, d.name, m, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if !trace {
				continue
			}
			if c := rep.values["layer_coverage_frac"]; c < 0.9 {
				t.Errorf("%s: layer_coverage_frac = %v, want >= 0.9", w.name, c)
			}
			spills := rep.values["sqlengine.spilled_mb"] > 0 && rep.values["sqlengine.spill_files"] > 0
			if spills != (w.name == "out_of_core") {
				t.Errorf("%s: spilled %v MB in %v files per op", w.name, rep.values["sqlengine.spilled_mb"], rep.values["sqlengine.spill_files"])
			}
			if strings.HasPrefix(w.name, "service") != (rep.values["service.http_ms"] > 0) {
				t.Errorf("%s: service.http_ms = %v", w.name, rep.values["service.http_ms"])
			}
		}
	}
}
