package experiments

import (
	"context"
	"fmt"
	"strings"

	"fuiov/internal/metrics"
)

// SweepPoint is one (hyperparameter value, recovered accuracy) pair of
// Figures 2 and 3.
type SweepPoint struct {
	Value    float64
	Accuracy float64
}

// DefaultLValues is the Figure 2 grid for the clip threshold L. The
// paper sweeps {0.01, 0.1, 0.5, 1, 5, 10} around its optimum L=1; our
// grid spans the same ±2-decade window around the rescaled optimum
// (see PaperScale for the η·L step-cap equivalence).
var DefaultLValues = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1}

// DefaultDeltaValues is the Figure 3 grid for the direction threshold
// δ. The paper sweeps decades around its optimum δ=1e-6; our grid
// spans decades around the rescaled optimum δ≈1e-2 (see PaperScale).
var DefaultDeltaValues = []float64{1e-6, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1}

// Figure2 reproduces Fig. 2: recovered-model accuracy as the clip
// threshold L varies, with δ fixed. The deployment is trained once;
// only the recovery is repeated. Expected shape: an inverted U — small
// L throttles recovery steps, large L amplifies estimation error.
func Figure2(ctx context.Context, scale Scale, seed uint64, ls []float64) ([]SweepPoint, error) {
	if len(ls) == 0 {
		ls = DefaultLValues
	}
	dep, err := NewDeployment(Digits, NoAttack, scale, seed)
	if err != nil {
		return nil, err
	}
	if err := dep.Train(ctx); err != nil {
		return nil, err
	}
	eval := dep.Template.Clone()
	points := make([]SweepPoint, 0, len(ls))
	for _, l := range ls {
		cfg := dep.unlearnConfig()
		cfg.ClipThreshold = l
		res, err := dep.ours(ctx, dep.Store, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure2 L=%v: %w", l, err)
		}
		points = append(points, SweepPoint{
			Value:    l,
			Accuracy: metrics.AccuracyAt(eval, res.Params, dep.Test),
		})
	}
	return points, nil
}

// Figure3 reproduces Fig. 3: recovered-model accuracy as the direction
// threshold δ varies, with L fixed. Training runs once with full
// gradients recorded; each δ re-compresses that history into a fresh
// direction store. Expected shape: flat/high for small δ, declining as
// δ grows and more gradient information is zeroed out.
func Figure3(ctx context.Context, scale Scale, seed uint64, deltas []float64) ([]SweepPoint, error) {
	if len(deltas) == 0 {
		deltas = DefaultDeltaValues
	}
	dep, err := NewDeployment(Digits, NoAttack, scale, seed)
	if err != nil {
		return nil, err
	}
	if err := dep.Train(ctx); err != nil {
		return nil, err
	}
	eval := dep.Template.Clone()
	points := make([]SweepPoint, 0, len(deltas))
	for _, delta := range deltas {
		store, err := StoreFromFull(dep.Full, delta)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure3 δ=%v: %w", delta, err)
		}
		// Leave records must be replayed onto the rebuilt store so
		// membership matches the original (none in this scenario).
		res, err := dep.ours(ctx, store, dep.unlearnConfig())
		if err != nil {
			return nil, fmt.Errorf("experiments: figure3 δ=%v: %w", delta, err)
		}
		points = append(points, SweepPoint{
			Value:    delta,
			Accuracy: metrics.AccuracyAt(eval, res.Params, dep.Test),
		})
	}
	return points, nil
}

// FormatSweep renders a hyperparameter sweep as a two-column table
// with a text bar chart.
func FormatSweep(title, param string, points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s %9s\n", param, "accuracy")
	for _, p := range points {
		bar := strings.Repeat("#", int(p.Accuracy*40+0.5))
		fmt.Fprintf(&b, "%-12.2g %9.3f  %s\n", p.Value, p.Accuracy, bar)
	}
	return b.String()
}
