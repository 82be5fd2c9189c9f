package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"fuiov/internal/unlearn/strategy"
)

// TestCompareStrategiesCIScale runs the comparative harness at CI
// scale over every registered strategy and sanity-checks the rows.
func TestCompareStrategiesCIScale(t *testing.T) {
	rows, err := CompareStrategiesVerified(context.Background(), CIScale(), 47, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(strategy.Names()); len(rows) != want {
		t.Fatalf("%d rows, want one per registered strategy (%d)", len(rows), want)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Strategy] {
			t.Errorf("duplicate row for %q", r.Strategy)
		}
		seen[r.Strategy] = true
		if r.Accuracy <= 0.2 || r.Accuracy > 1 {
			t.Errorf("%s: implausible post-unlearn accuracy %v", r.Strategy, r.Accuracy)
		}
		if r.WallMillis < 0 {
			t.Errorf("%s: negative wall time", r.Strategy)
		}
	}
	for _, name := range []string{"paper", "retrain", "federaser", "pga", "not"} {
		if !seen[name] {
			t.Errorf("no row for %q", name)
		}
	}
	// Storage regimes: the paper's 2-bit store must undercut the
	// full-gradient strategies by a wide margin.
	var paperBytes, eraserBytes int64
	for _, r := range rows {
		switch r.Strategy {
		case "paper":
			paperBytes = r.StorageBytes
		case "federaser":
			eraserBytes = r.StorageBytes
		}
	}
	if paperBytes <= 0 || eraserBytes <= 0 || paperBytes*4 > eraserBytes {
		t.Errorf("storage accounting off: paper %d bytes vs federaser %d", paperBytes, eraserBytes)
	}

	out := FormatStrategies(rows)
	if !strings.Contains(out, "STRATEGY COMPARISON") || !strings.Contains(out, "paper") {
		t.Errorf("FormatStrategies output malformed:\n%s", out)
	}

	var buf bytes.Buffer
	if err := WriteStrategiesJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Experiment string        `json:"experiment"`
		Strategies []StrategyRow `json:"strategies"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("BENCH_strategies.json round-trip: %v", err)
	}
	if decoded.Experiment != "strategies" || len(decoded.Strategies) != len(rows) {
		t.Errorf("JSON record lost rows: %+v", decoded)
	}
}

// TestCompareStrategiesFilter checks name filtering and unknown-name
// rejection.
func TestCompareStrategiesFilter(t *testing.T) {
	rows, err := CompareStrategiesVerified(context.Background(), CIScale(), 47, []string{"not"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Strategy != "not" {
		t.Fatalf("filtered rows = %+v", rows)
	}
	if _, err := CompareStrategiesVerified(context.Background(), CIScale(), 47, []string{"bogus"}, nil); err == nil {
		t.Fatal("unknown strategy name accepted")
	}
}

// TestTable1MatchesStrategies: Table I is the strategy registry under
// another layout. Each of a row's four accuracies equals, exactly, what
// the comparison harness — strategy.Unlearn called by that column's
// name on a separately built deployment of the same seed — reports,
// the number BENCH_strategies.json records. (Every strategy's
// parameters are bit-equal run to run: TestStrategyDeterminism.)
func TestTable1MatchesStrategies(t *testing.T) {
	ctx := context.Background()
	const seed = 47
	row, err := table1Row(ctx, Digits, CIScale(), seed)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"retrain", "fedrecover", "fedrecovery", "paper"}
	table := []float64{row.Retraining, row.FedRecover, row.FedRecovery, row.Ours}
	harness, err := CompareStrategiesVerified(ctx, CIScale(), seed, names, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if harness[i].Strategy != name || harness[i].Accuracy != table[i] {
			t.Errorf("%s: Table I says %v, the strategies harness row is %+v", name, table[i], harness[i])
		}
	}
}
