package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fuiov/internal/server"
)

// TestSmoke runs every workload at its smoke size, untraced and traced,
// and checks that each metric the registry names is emitted, finite and
// carries its unit, and that every correctness check inside the
// episodes passed.
func TestSmoke(t *testing.T) {
	outdir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(context.Background(), runConfig{spec: w.smoke(), seed: 7, trace: traced, smoke: true, outdir: outdir})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", w.name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, registry has %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, def := range defs {
				m, ok := res.Metrics[def.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s not emitted", w.name, def.Name)
				case m.Unit != def.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.name, def.Name, m.Unit, def.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s is %v", w.name, def.Name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, def.Name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(outdir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
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

// TestBenchmarkJSONMatchesRegistry diffs BENCHMARK.json against the
// driver's registry both ways, so neither can name a workload or a
// metric the other lacks.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}

	var inDoc, inCode []string
	for _, w := range doc.Workloads {
		inDoc = append(inDoc, "workload "+w.Name+": "+w.Why)
	}
	for _, m := range doc.EndToEnd {
		inDoc = append(inDoc, "end_to_end "+strings.Join([]string{m.Name, m.Unit, m.Better}, " ")+" "+formatBound(m.Bound))
	}
	for _, m := range doc.PerLayer {
		inDoc = append(inDoc, "per_layer "+strings.Join([]string{m.Name, m.Unit, m.Better}, " "))
	}
	for _, w := range workloads {
		inCode = append(inCode, "workload "+w.name+": "+w.why)
	}
	for _, m := range endToEnd {
		inCode = append(inCode, "end_to_end "+strings.Join([]string{m.Name, m.Unit, m.Better}, " ")+" "+formatBound(m.Bound))
	}
	for _, m := range perLayer {
		inCode = append(inCode, "per_layer "+strings.Join([]string{m.Name, m.Unit, m.Better}, " "))
	}
	for _, entry := range inDoc {
		if !slices.Contains(inCode, entry) {
			t.Errorf("BENCHMARK.json has %q, the registry does not", entry)
		}
	}
	for _, entry := range inCode {
		if !slices.Contains(inDoc, entry) {
			t.Errorf("the registry has %q, BENCHMARK.json does not", entry)
		}
	}
	if !slices.ContainsFunc(endToEnd, func(m metricDef) bool { return m.Name == "setup_s" }) {
		t.Error("no setup_s metric")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", doc.RunSeconds)
	}
	if !slices.Equal(doc.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", doc.Paths)
	}
}

func formatBound(b float64) string { return fmt.Sprintf("%.4f", b) }

// TestSynthFrames checks the in-place frame patching against the
// server's own reader: the dense and the sign frame of one vehicle must
// describe the same gradient direction at every round, the round field
// must follow, and flips must actually happen.
func TestSynthFrames(t *testing.T) {
	const dim, rounds = 203, 12
	dense, err := newSynthFleet(3, 2, dim, rounds, server.EncodingDense)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := newSynthFleet(3, 2, dim, rounds, server.EncodingSign)
	if err != nil {
		t.Fatal(err)
	}
	var first, last []float64
	for round := 0; round < 2*rounds+3; round += 1 + round%2 {
		g, err := dense[1].decode(round, dim)
		if err != nil {
			t.Fatal(err)
		}
		s, err := packed[1].decode(round, dim)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = slices.Clone(g)
		}
		last = g
		for k := range g {
			if math.Abs(g[k]) < 0.5 || math.Abs(g[k]) > 1.5 {
				t.Fatalf("round %d element %d: magnitude %v", round, k, g[k])
			}
			if s[k] != math.Copysign(1, g[k]) {
				t.Fatalf("round %d element %d: sign frame has %v, dense frame %v", round, k, s[k], g[k])
			}
		}
	}
	// Every element flips exactly once in rounds [1, 2·rounds].
	for k := range last {
		if last[k] != -first[k] {
			t.Fatalf("element %d: %v at round 0, %v after round %d, want flipped", k, first[k], last[k], 2*rounds)
		}
	}
}

// TestQuartiles pins summarize to Python's
// statistics.quantiles(v, n=4), which the benchmark driver uses.
func TestQuartiles(t *testing.T) {
	cases := []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 82.5},
		{[]float64{5, 1}, 0, 6},
	}
	for _, c := range cases {
		if s := summarize(c.v); s.Q1 != c.q1 || s.Q3 != c.q3 {
			t.Errorf("%v: quartiles %v and %v, want %v and %v", c.v, s.Q1, s.Q3, c.q1, c.q3)
		}
	}
}

// TestVerdict pins -compare's three outcomes.
func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{80, 120, 95, 130, 70, 110, 100, 125, 85, 105}
	cases := []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower within bound", lower, steady, scale(1.05), "ok"},
		{"slower beyond bound", lower, steady, scale(1.2), "regressed"},
		{"faster", lower, steady, scale(0.5), "ok"},
		{"rate fell beyond bound", higher, steady, scale(0.8), "regressed"},
		{"rate rose", higher, steady, scale(1.5), "ok"},
		{"noisy and interleaved", lower, noisy, steady, "unresolved"},
		{"noisy but every run worse", lower, noisy, scale(2), "regressed"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
