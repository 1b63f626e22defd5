package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
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

// BENCHMARK.json and the program must name the same workloads and
// metrics, in the same order, with the same units, directions and bounds:
// the driver reads the file, the program prints from spec.go.
func TestListMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, w := range file.Workloads {
		want.WriteString("workload " + w.Name + "\n")
	}
	for _, m := range file.EndToEnd {
		want.WriteString("end_to_end " + m.Name + "\n")
	}
	for _, m := range file.PerLayer {
		want.WriteString("per_layer " + m.Name + "\n")
	}
	var got bytes.Buffer
	printList(&got)
	if got.String() != want.String() {
		t.Errorf("-list prints\n%s\nBENCHMARK.json names\n%s", got.String(), want.String())
	}
	for i, w := range file.Workloads {
		if i < len(workloads) && w.Why != workloads[i].why {
			t.Errorf("workload %s: why differs between BENCHMARK.json and spec.go", w.Name)
		}
	}
	for i, m := range file.EndToEnd {
		if i < len(endToEnd) && (metricSpec{m.Name, m.Unit, m.Better, m.Bound}) != endToEnd[i] {
			t.Errorf("end_to_end %s: %+v in BENCHMARK.json, %+v in spec.go", m.Name, m, endToEnd[i])
		}
	}
	for i, m := range file.PerLayer {
		if i < len(perLayer) && (metricSpec{m.Name, m.Unit, m.Better, 0}) != perLayer[i] {
			t.Errorf("per_layer %s: %+v in BENCHMARK.json, %+v in spec.go", m.Name, m, perLayer[i])
		}
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
}

func TestSetupIsAnEndToEndMetricWithTheLargestBound(t *testing.T) {
	var setup *metricSpec
	for i := range endToEnd {
		m := &endToEnd[i]
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s missing or misdeclared: %+v", setup)
	}
	for _, m := range endToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// Every internal API the benchmark touches goes through layers.go, so
// that an internal redesign edits one file here.
func TestOnlyLayersImportsInternalPackages(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "layers.go" {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(path, "repro/") {
				t.Errorf("%s imports %s; only layers.go may", f, path)
			}
		}
	}
}

func TestResultLineShape(t *testing.T) {
	r := &report{Correct: true, Attempted: 3, EndToEnd: map[string]measure{}, Layers: map[string]float64{"wal.fsyncs": 7}}
	for _, m := range endToEnd {
		r.EndToEnd[m.Name] = measure{Value: 1.5, Unit: m.Unit, N: 2}
	}
	for _, trace := range []bool{false, true} {
		r.Trace = trace
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  *string  `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(r.resultLine()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(want) {
			t.Fatalf("trace=%v: result line %s", trace, r.resultLine())
		}
		for _, m := range want {
			got, ok := line.Metrics[m.Name]
			if !ok || got.Value == nil || got.Unit == nil || *got.Unit != m.Unit {
				t.Errorf("trace=%v: metric %s missing or without value and unit", trace, m.Name)
			}
		}
	}
}
