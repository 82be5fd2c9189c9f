package experiments

import (
	"context"
	"fmt"
	"strings"

	"fuiov/internal/sign"
)

// StorageRow quantifies the paper's headline storage claim (§I, §VI:
// "spare approximately 95% of storage overhead") on a real training
// run.
type StorageRow struct {
	Dataset string
	// DirectionBytes is the measured footprint of the 2-bit packed
	// gradient directions.
	DirectionBytes int
	// FullGradientBytes is the measured footprint full float64
	// gradients would have needed (FedRecover's regime).
	FullGradientBytes int
	// ModelBytes is the (shared) cost of per-round model snapshots.
	ModelBytes int
	// MeasuredSavings is 1 − Direction/Full.
	MeasuredSavings float64
	// TheoreticalSavings64 and TheoreticalSavings32 are the analytic
	// 2-bit-vs-float savings.
	TheoreticalSavings64 float64
	TheoreticalSavings32 float64
}

// Storage trains one deployment per dataset and reports the measured
// gradient-storage savings of direction encoding.
func Storage(ctx context.Context, scale Scale, seed uint64) ([]StorageRow, error) {
	rows := make([]StorageRow, 0, 2)
	for _, kind := range []DatasetKind{Digits, Traffic} {
		dep, err := NewDeployment(kind, NoAttack, scale, seed)
		if err != nil {
			return nil, err
		}
		if err := dep.Train(ctx); err != nil {
			return nil, fmt.Errorf("experiments: storage %s: %w", kind, err)
		}
		rep := dep.Store.Storage()
		rows = append(rows, StorageRow{
			Dataset:              kind.String(),
			DirectionBytes:       rep.DirectionBytes,
			FullGradientBytes:    rep.FullGradientBytes,
			ModelBytes:           rep.ModelBytes,
			MeasuredSavings:      rep.GradientSavings,
			TheoreticalSavings64: sign.Savings(64),
			TheoreticalSavings32: sign.Savings(32),
		})
	}
	return rows, nil
}

// FormatStorage renders the storage comparison.
func FormatStorage(rows []StorageRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Storage overhead — direction encoding vs full gradients\n")
	fmt.Fprintf(&b, "%-14s %12s %12s %12s %9s\n",
		"Dataset", "dir bytes", "full bytes", "model bytes", "savings")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12d %12d %12d %8.1f%%\n",
			r.Dataset, r.DirectionBytes, r.FullGradientBytes, r.ModelBytes,
			100*r.MeasuredSavings)
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "theoretical: %.1f%% vs float64, %.1f%% vs float32 (paper claims ~95%%)\n",
			100*rows[0].TheoreticalSavings64, 100*rows[0].TheoreticalSavings32)
	}
	return b.String()
}
