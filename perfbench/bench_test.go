package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// tinyWorkloads are one-round versions of the three workloads.
func tinyWorkloads() map[string]Workload {
	return map[string]Workload{
		"symbolic-sweep": &Sweep{Drivers: []string{"intel-ac97", "amd-pcnet"}, Expected: expectedBugs},
		"fuzz-hunt": &Hunt{
			Drivers: []string{"promise-ultra133"}, Seeds: 1, Budget: 1000, Expected: expectedBugs,
		},
		"fleet-loopback": &Fleet{
			Drivers: []string{"rtl8029"}, Slots: 2, Execs: map[string]uint64{"rtl8029": 2500},
			Seed: 1, Workers: 2, Expected: expectedBugs,
		},
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesMetricLists pins BENCHMARK.json to the metrics and
// workloads the program reports.
func TestSpecMatchesMetricLists(t *testing.T) {
	spec := loadSpec(t)
	check := func(kind string, got []struct{ Name, Unit string }, want []Metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(spec.Workloads), len(ws))
	}
	for _, w := range spec.Workloads {
		if ws[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// TestTinyWorkloadsEmitEveryMetric runs each workload once untraced and
// once traced and checks that every named metric is emitted with its unit
// and that every output check passes.
func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	stateDir = t.TempDir()
	for name, w := range tinyWorkloads() {
		for _, trace := range []bool{false, true} {
			res, err := Run(w, 1, 0, trace, "")
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, m.Name, got, m.Unit)
				}
			}
			if !trace {
				for _, m := range endToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestWrongExpectedBugsCountAsFailed gives each workload a deliberately
// wrong expected-bug set and checks that the run reports failed
// operations instead of a correct result.
func TestWrongExpectedBugsCountAsFailed(t *testing.T) {
	stateDir = t.TempDir()
	wrong := func(string) []string { return []string{"deadlock"} }
	for name, w := range tinyWorkloads() {
		switch w := w.(type) {
		case *Sweep:
			w.Expected = wrong
		case *Hunt:
			w.Expected = wrong
		case *Fleet:
			w.Expected = wrong
		}
		res, err := Run(w, 1, 0, false, "")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: wrong expected bugs gave correct=%v failed=%d", name, res.Correct, res.Failed)
		}
	}
}

// TestLayerSelfTimes checks the recorder's self-time rule on a hand-built
// nesting: a parent's self time excludes its children.
func TestLayerSelfTimes(t *testing.T) {
	rec := NewRecorder()
	l := rec.Lane()
	outer := l.Begin("outer")
	time.Sleep(2 * time.Millisecond)
	inner := l.Begin("inner")
	time.Sleep(5 * time.Millisecond)
	l.End(inner)
	l.End(outer)
	layers := rec.Layers()
	o, i := layers["outer"], layers["inner"]
	if o.Calls != 1 || i.Calls != 1 {
		t.Fatalf("calls outer=%d inner=%d, want 1 each", o.Calls, i.Calls)
	}
	if o.Self+i.Self != o.Durs[0] {
		t.Errorf("outer self %v + inner self %v != outer duration %v", o.Self, i.Self, o.Durs[0])
	}
	if o.Self >= i.Self {
		t.Errorf("outer self %v should exclude the 5ms child (inner self %v)", o.Self, i.Self)
	}
}
