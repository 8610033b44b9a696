package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// tiny is a scale at which a smoke run of any workload takes seconds.
var tiny = scale{fitRows: 200, warmBodies: 2, freshBodies: 2, freshRows: 64, chunkRows: 16}

func TestInputsDeterministic(t *testing.T) {
	a, err := makeInputs(7, tiny)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeInputs(7, tiny)
	if err != nil {
		t.Fatal(err)
	}
	c, err := makeInputs(8, tiny)
	if err != nil {
		t.Fatal(err)
	}
	bodies := func(in *inputs) [][]byte {
		var out [][]byte
		for _, src := range in.sources {
			out = append(out, src.fit.csv, src.fit.ndjson)
			for _, x := range src.warm {
				out = append(out, x.csv, x.ndjson)
			}
		}
		for _, x := range in.fresh {
			out = append(out, x.csv, x.ndjson)
		}
		return out
	}
	ba, bb, bc := bodies(a), bodies(b), bodies(c)
	for i := range ba {
		if !bytes.Equal(ba[i], bb[i]) {
			t.Errorf("body %d differs between two runs at the same seed", i)
		}
	}
	if bytes.Equal(ba[0], bc[0]) {
		t.Error("fit body is the same at seeds 7 and 8")
	}
	if bytes.Equal(a.sources[0].fit.csv, a.sources[1].fit.csv) {
		t.Error("a run's two sources have the same fit body")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, nameRE)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.name, m.unit, unitRE)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better = %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric name %q used twice", m.name)
		}
		seen[m.name] = true
	}
	for _, m := range perLayer {
		if m.moves == "" {
			t.Errorf("per-layer metric %s names no end-to-end metric it moves", m.name)
		}
	}
}

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metric and
// workload tables the program reports from in step.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file has %q, program has %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: file %d+%d, program %d+%d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range f.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end_to_end %d: file %+v, program %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range f.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer %d: file %+v, program %+v", i, m, want)
		}
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// checks the result line: every named metric with its unit, every
// operation correct.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fits models")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			opt := options{
				workload: w.name, seed: 3, seconds: 0.5, trace: trace, scale: tiny,
				setups: 2, extraOps: 40, extraStr: 1,
				workDir: t.TempDir(), root: ".",
			}
			var out bytes.Buffer
			if err := execute(opt, &out); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, d.name, v, d.unit)
				}
			}
			if !strings.HasPrefix(lines[0], "env {") {
				t.Errorf("%s trace=%v: first line %q does not record the environment", w.name, trace, lines[0])
			}
		}
	}
}
