package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// errRegressed makes -compare exit non-zero when any row regressed.
var errRegressed = errors.New("compare: at least one metric regressed")

// loadRuns reads a record file and gathers, per workload and
// end-to-end metric, the value of every untraced run in it.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var inv invocation
		if err := json.Unmarshal(sc.Bytes(), &inv); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		for _, r := range inv.Runs {
			if r.Trace {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = make(map[string][]float64)
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
	}
	return out, sc.Err()
}

// verdict applies one metric's bound to two sets of runs, A the parent
// and B the change.
//
//   - "regressed": B's median is worse than A's by more than the bound.
//   - "unresolved": either set's spread (interquartile range over
//     median) is wider than the bound and the two sets interleave, so
//     the medians' distance says nothing either way.
//   - "ok" otherwise.
func verdict(def metricDef, a, b []float64) (string, float64) {
	sa, sb := summarize(a), summarize(b)
	worse := (sb.Median - sa.Median) / sa.Median
	if def.Better == "higher" {
		worse = -worse
	}
	wide := (sa.Q3-sa.Q1)/sa.Median > def.Bound || (sb.Q3-sb.Q1)/sb.Median > def.Bound
	apart := slices.Min(b) > slices.Max(a) || slices.Max(b) < slices.Min(a)
	switch {
	case wide && !apart:
		return "unresolved", worse
	case worse > def.Bound:
		return "regressed", worse
	default:
		return "ok", worse
	}
}

// compareFiles prints one row per (workload, end-to-end metric) with
// both sets' medians, quartiles and the verdict.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadRuns(pathA)
	if err != nil {
		return err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-19s %-24s %-5s %38s %38s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "worse", "bound", "verdict")
	regressed := false
	for _, s := range workloads {
		for _, def := range endToEnd {
			va, vb := a[s.name][def.Name], b[s.name][def.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-19s %-24s %-5s %38s %38s %8s %6s  %s\n", s.name, def.Name, def.Unit, cell(va), cell(vb), "", "", "missing")
				continue
			}
			v, worse := verdict(def, va, vb)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-19s %-24s %-5s %38s %38s %+7.2f%% %5.0f%%  %s\n",
				s.name, def.Name, def.Unit, cell(va), cell(vb), 100*worse, 100*def.Bound, v)
		}
	}
	if regressed {
		return errRegressed
	}
	return nil
}

// cell renders one set of runs as "median [q1, q3] n".
func cell(values []float64) string {
	if len(values) == 0 {
		return "-"
	}
	s := summarize(values)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", s.Median, s.Q1, s.Q3, s.N)
}
