package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/query"
)

// declared is the metric list of BENCHMARK.json.
type declared struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// tinySpec shrinks a workload so the whole suite runs in seconds.
func tinySpec(t *testing.T, workload string, traced bool) spec {
	sp := defaultSpec()
	sp.Workload, sp.Seed, sp.Seconds, sp.Trace = workload, 7, 1, traced
	sp.Tmp = t.TempDir()
	sp.Rows, sp.Training, sp.Setups, sp.SetupBudget = 3000, 120, 1, 0
	sp.Catalog, sp.Probes, sp.Verify = 64, 20, 256
	sp.Warmup = 200 * time.Millisecond
	return sp
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks that it is correct and reports exactly the
// metrics BENCHMARK.json declares for that mode, with their units.
func TestWorkloadsTiny(t *testing.T) {
	d := loadDeclared(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range d.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		want[true][m.Name] = m.Unit
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		for _, traced := range []bool{false, true} {
			drive, ok := workloads[w.Name]
			if !ok {
				t.Fatalf("declared workload %q is not implemented", w.Name)
			}
			rep, err := drive(tinySpec(t, w.Name, traced))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if len(rep.mismatches) > 0 {
				t.Errorf("%s trace=%v: incorrect: %v", w.Name, traced, rep.mismatches)
			}
			if rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.Name, traced, rep.Attempted, rep.Failed)
			}
			for name, m := range rep.Metrics {
				if !namePattern.MatchString(name) {
					t.Errorf("%s: metric name %q is malformed", w.Name, name)
				}
				unit, ok := want[traced][name]
				if !ok {
					t.Errorf("%s trace=%v: metric %q is not declared", w.Name, traced, name)
				} else if unit != m.Unit {
					t.Errorf("%s: metric %q has unit %q, declared %q", w.Name, name, m.Unit, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %q = %v", w.Name, name, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %q = %v, want > 0", w.Name, name, m.Value)
				}
			}
			for name := range want[traced] {
				if _, ok := rep.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: declared metric %q not reported", w.Name, traced, name)
				}
			}
		}
	}
}

// TestDeclaredNamesMatchCode keeps the code's metric lists and
// BENCHMARK.json in step.
func TestDeclaredNamesMatchCode(t *testing.T) {
	d := loadDeclared(t)
	if len(d.EndToEnd) != len(e2eNames) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the code %d", len(d.EndToEnd), len(e2eNames))
	}
	for i, m := range d.EndToEnd {
		if i < len(e2eNames) && m.Name != e2eNames[i] {
			t.Errorf("end-to-end metric %d: declared %q, code %q", i, m.Name, e2eNames[i])
		}
	}
	if len(d.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the code %d", len(d.PerLayer), len(layerUnits))
	}
	for _, m := range d.PerLayer {
		if layerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer metric %q: declared unit %q, code %q", m.Name, m.Unit, layerUnits[m.Name])
		}
	}
}

// TestChecksCatchCorruption shows that the correctness checks fail on a
// wrong answer: real cluster answers pass, and then one flipped bit in
// a SUM, a degraded flag, or a miscounted ingest each trip them.
func TestChecksCatchCorruption(t *testing.T) {
	rng := newRNG(3)
	rows := genBaseRows(rng, 2000)
	ref, err := referenceTable(rows)
	if err != nil {
		t.Fatal(err)
	}
	qs := genQueries(rng, 60, scatterAggs, 0.5)
	agentCfg := core.DefaultConfig(2)
	agentCfg.TrainingQueries = 1 << 30
	cs, err := startCluster(rows, dist.Config{Agent: agentCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.close()
	cli := cs.lc.Client()
	answers := make([]exactAnswer, len(qs))
	sumAt := -1
	for i, q := range qs {
		a, err := cli.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		answers[i] = exactAnswer{done: true, degraded: a.Degraded, value: a.Value}
		if q.Aggregate == query.Sum && a.Value != 0 {
			sumAt = i
		}
	}
	if sumAt < 0 {
		t.Fatal("no non-zero SUM answer to corrupt")
	}
	rep := &report{}
	if n := checkExact(rep, ref, qs, answers); n != len(qs) || len(rep.mismatches) != 0 {
		t.Fatalf("clean answers: checked %d, mismatches %v", n, rep.mismatches)
	}

	corrupt := append([]exactAnswer(nil), answers...)
	corrupt[sumAt].value = math.Nextafter(corrupt[sumAt].value, math.Inf(1))
	rep = &report{}
	checkExact(rep, ref, qs, corrupt)
	if len(rep.mismatches) != 1 {
		t.Errorf("one-ulp SUM corruption: mismatches %v, want exactly one", rep.mismatches)
	}

	corrupt = append([]exactAnswer(nil), answers...)
	corrupt[0].degraded = true
	rep = &report{}
	checkExact(rep, ref, qs, corrupt)
	if len(rep.mismatches) != 1 {
		t.Errorf("degraded answer: mismatches %v, want exactly one", rep.mismatches)
	}

	rep = &report{}
	checkCount(rep, cs, float64(len(rows)))
	if len(rep.mismatches) != 0 {
		t.Errorf("true row count: mismatches %v", rep.mismatches)
	}
	checkCount(rep, cs, float64(len(rows)+1))
	if len(rep.mismatches) != len(cs.nodes) {
		t.Errorf("miscounted ingest: mismatches %v, want one per node", rep.mismatches)
	}
}
