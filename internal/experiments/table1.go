package experiments

import (
	"context"
	"fmt"
	"strings"

	"fuiov/internal/metrics"
	"fuiov/internal/unlearn/strategy"
)

// Table1Row is one row of the paper's Table I: the post-recovery
// global-model accuracy of each unlearning method on one dataset.
type Table1Row struct {
	Dataset     string
	Retraining  float64
	FedRecover  float64
	FedRecovery float64
	Ours        float64
}

// Table1 reproduces Table I: a benign client that joined at round F
// requests erasure; each method unlearns it and the recovered model is
// evaluated on the test set. Expected shape (paper): Retraining ≥
// FedRecover ≥ Ours ≥ FedRecovery.
func Table1(ctx context.Context, scale Scale, seed uint64) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, 2)
	for _, kind := range []DatasetKind{Digits, Traffic} {
		row, err := table1Row(ctx, kind, scale, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: table1 %s: %w", kind, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func table1Row(ctx context.Context, kind DatasetKind, scale Scale, seed uint64) (Table1Row, error) {
	dep, err := NewDeployment(kind, NoAttack, scale, seed)
	if err != nil {
		return Table1Row{}, err
	}
	if err := dep.Train(ctx); err != nil {
		return Table1Row{}, err
	}
	req := dep.request()
	eval := dep.Template.Clone()
	row := Table1Row{Dataset: kind.String()}
	for _, col := range []struct {
		name     string
		accuracy *float64
	}{
		{"retrain", &row.Retraining},
		{"fedrecover", &row.FedRecover},
		{"fedrecovery", &row.FedRecovery},
		{"paper", &row.Ours},
	} {
		res, err := strategy.Unlearn(ctx, col.name, req)
		if err != nil {
			return Table1Row{}, err
		}
		*col.accuracy = metrics.AccuracyAt(eval, res.Params, dep.Test)
	}
	return row, nil
}

// FormatTable1 renders rows in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE I — Accuracy of unlearning methods\n")
	fmt.Fprintf(&b, "%-14s %11s %11s %12s %8s\n", "Dataset", "Retraining", "FedRecover", "FedRecovery", "Ours")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %11.3f %11.3f %12.3f %8.3f\n",
			r.Dataset, r.Retraining, r.FedRecover, r.FedRecovery, r.Ours)
	}
	return b.String()
}
