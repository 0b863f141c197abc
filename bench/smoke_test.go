package bench

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload for a second on a tiny topology — half of it
// undecorated, half traced — and checks everything but the timings: no failed
// operation, the correctness checks, every declared metric reported as a
// finite number, what the harness gates never 0, and spans that nest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the whole stack for several seconds")
	}
	for _, w := range Workloads {
		w.Warmup = 3
		if w.Topo.Domains != 0 {
			w.Topo = Ring4
		}
		for _, traced := range []bool{false, true} {
			window := 500 * time.Millisecond
			if w.Durable && !traced {
				window *= 2 // ten slices no shorter than the open loop's burst interval, so none is empty
			}
			res, err := Run(Options{Workload: w, Seed: 1, Window: window, Traced: traced, DataRoot: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d/%d: %v", w.Name, traced, res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			defs := EndToEnd
			if traced {
				defs = append(defs[:len(defs):len(defs)], Layers...)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (reported=%v)", w.Name, traced, d.Name, m, ok)
				}
			}
			for _, d := range Harness() {
				if !traced && res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: harness-gated metric %s = %v, must never be 0", w.Name, d.Name, res.Metrics[d.Name].Value)
				}
			}
			if traced {
				if len(res.Spans) == 0 {
					t.Errorf("%s: the traced run recorded no spans", w.Name)
				}
				if err := CheckSpans(res.Spans); err != nil {
					t.Errorf("%s: %v", w.Name, err)
				}
				if c := res.Metrics["trace.coverage_share"].Value; c <= 0 || c > 1.0001 {
					t.Errorf("%s: trace.coverage_share = %v", w.Name, c)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesTheCode: BENCHMARK.json is what the harness reads,
// the tables in metrics.go and workload.go are what the program reports.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []MetricDef                  `json:"end_to_end"`
		PerLayer  []MetricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	// What BENCHMARK.json says of a metric: its name, unit, direction and bound.
	said := func(defs []MetricDef) []MetricDef {
		out := make([]MetricDef, len(defs))
		for i, d := range defs {
			out[i] = MetricDef{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
		}
		return out
	}
	if !reflect.DeepEqual(doc.EndToEnd, said(Harness())) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, said(Harness()))
	}
	if !reflect.DeepEqual(doc.PerLayer, said(PerLayer())) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", doc.PerLayer, said(PerLayer()))
	}
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, code {%s %s}", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	report := func(workload, metric string, values ...float64) *Report {
		r := &Report{}
		for _, v := range values {
			r.Sets = append(r.Sets, Set{Results: []*Result{{
				Workload: workload, Metrics: map[string]Metric{metric: {Value: v}},
			}}})
		}
		return r
	}
	four := func(v float64) []float64 { return []float64{v, v, v, v} }
	bound := map[string]float64{}
	for _, d := range EndToEnd {
		bound[d.Name] = d.Bound
	}
	cpu, slo := bound["cpu_ms_per_install"], bound["slo_share"]
	for _, c := range []struct {
		name             string
		workload, metric string
		a, b             []float64
		verdict          string
	}{
		{"within the bound", "local_chain", "cpu_ms_per_install", four(10), four(10 * (1 + 0.9*cpu)), "ok"},
		{"beyond the bound", "local_chain", "cpu_ms_per_install", four(10), four(10 * (1 + 1.1*cpu)), "worse"},
		{"better", "local_chain", "cpu_ms_per_install", four(10), four(5), "ok"},
		{"a spread wider than the bound cannot tell", "local_chain", "cpu_ms_per_install", []float64{5, 10, 15, 20}, four(40), "unresolved"},
		{"neither can fewer than four runs", "local_chain", "cpu_ms_per_install", []float64{10}, []float64{20}, "unresolved"},
		{"higher is better", "local_chain", "installs_per_s", four(100), four(50), "worse"},
		{"an absolute bound, held", "durable_burst", "slo_share", four(0.99), four(0.99 - 0.9*slo), "ok"},
		{"an absolute bound, broken", "durable_burst", "slo_share", four(0.99), four(0.99 - 1.1*slo), "worse"},
		{"no failure is tolerated", "fig1_chain", "fail_share", four(0), four(0.001), "worse"},
		{"none is fine", "fig1_chain", "fail_share", four(0), four(0), "ok"},
	} {
		var table strings.Builder
		worse := Compare(&table, report(c.workload, c.metric, c.a...), report(c.workload, c.metric, c.b...))
		rows := strings.Split(strings.TrimSpace(table.String()), "\n")
		if len(rows) != 2 || !strings.HasSuffix(rows[1], c.verdict) || worse != strings.Count(table.String(), "worse") {
			t.Errorf("%s: want one row ending %q, got %d worse and\n%s", c.name, c.verdict, worse, table.String())
		}
	}
}
