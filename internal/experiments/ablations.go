package experiments

import (
	"context"
	"fmt"
	"strings"

	"fuiov/internal/metrics"
	"fuiov/internal/unlearn"
)

// AblationRow is one configuration of a design-choice ablation.
type AblationRow struct {
	Setting  string
	Accuracy float64
}

// AblationClipping (DESIGN.md A1) compares the paper's elementwise
// clipping against norm clipping and no clipping at all, holding
// everything else at Table-I settings.
func AblationClipping(ctx context.Context, scale Scale, seed uint64) ([]AblationRow, error) {
	dep, err := NewDeployment(Digits, NoAttack, scale, seed)
	if err != nil {
		return nil, err
	}
	if err := dep.Train(ctx); err != nil {
		return nil, err
	}
	eval := dep.Template.Clone()
	modes := []unlearn.ClipMode{unlearn.ClipElementwise, unlearn.ClipNorm, unlearn.ClipOff}
	rows := make([]AblationRow, 0, len(modes))
	for _, mode := range modes {
		cfg := dep.unlearnConfig()
		cfg.ClipMode = mode
		res, err := dep.ours(ctx, dep.Store, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation clip %s: %w", mode, err)
		}
		rows = append(rows, AblationRow{
			Setting:  mode.String(),
			Accuracy: metrics.AccuracyAt(eval, res.Params, dep.Test),
		})
	}
	return rows, nil
}

// DefaultRefreshPeriods is the A2 grid (0 disables refresh).
var DefaultRefreshPeriods = []int{0, 5, 21, 50}

// AblationRefresh (DESIGN.md A2) varies the vector-pair refresh
// period, including disabling refresh entirely.
func AblationRefresh(ctx context.Context, scale Scale, seed uint64, periods []int) ([]AblationRow, error) {
	if len(periods) == 0 {
		periods = DefaultRefreshPeriods
	}
	dep, err := NewDeployment(Digits, NoAttack, scale, seed)
	if err != nil {
		return nil, err
	}
	if err := dep.Train(ctx); err != nil {
		return nil, err
	}
	eval := dep.Template.Clone()
	rows := make([]AblationRow, 0, len(periods))
	for _, period := range periods {
		cfg := dep.unlearnConfig()
		cfg.RefreshEvery = period
		if period == 0 {
			// Config treats 0 as "use default", so express "off" as a
			// period beyond the horizon.
			cfg.RefreshEvery = scale.Rounds + 1
		}
		res, err := dep.ours(ctx, dep.Store, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation refresh %d: %w", period, err)
		}
		setting := fmt.Sprintf("every %d", period)
		if period == 0 {
			setting = "off"
		}
		rows = append(rows, AblationRow{
			Setting:  setting,
			Accuracy: metrics.AccuracyAt(eval, res.Params, dep.Test),
		})
	}
	return rows, nil
}

// AblationBootstrap (DESIGN.md A3) compares seeding L-BFGS pairs from
// pre-join history (the paper's innovation enabling offline clients)
// against starting cold.
func AblationBootstrap(ctx context.Context, scale Scale, seed uint64) ([]AblationRow, error) {
	dep, err := NewDeployment(Digits, NoAttack, scale, seed)
	if err != nil {
		return nil, err
	}
	if err := dep.Train(ctx); err != nil {
		return nil, err
	}
	eval := dep.Template.Clone()
	rows := make([]AblationRow, 0, 2)
	for _, disable := range []bool{false, true} {
		cfg := dep.unlearnConfig()
		cfg.DisableBootstrap = disable
		res, err := dep.ours(ctx, dep.Store, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation bootstrap=%v: %w", !disable, err)
		}
		setting := "pre-join bootstrap"
		if disable {
			setting = "cold start"
		}
		rows = append(rows, AblationRow{
			Setting:  setting,
			Accuracy: metrics.AccuracyAt(eval, res.Params, dep.Test),
		})
	}
	return rows, nil
}

// DefaultHeterogeneity is the A4 grid of Dirichlet concentrations
// (0 = IID).
var DefaultHeterogeneity = []float64{0, 10, 1, 0.3}

// AblationHeterogeneity (DESIGN.md A4) measures unlearning recovery
// under non-IID client data: shards drawn from Dirichlet(alpha) label
// distributions, the realistic IoV regime where each vehicle sees a
// biased slice of traffic. Each alpha requires its own training run.
func AblationHeterogeneity(ctx context.Context, scale Scale, seed uint64, alphas []float64) ([]AblationRow, error) {
	if len(alphas) == 0 {
		alphas = DefaultHeterogeneity
	}
	rows := make([]AblationRow, 0, len(alphas))
	for _, alpha := range alphas {
		s := scale
		s.DirichletAlpha = alpha
		dep, err := NewDeployment(Digits, NoAttack, s, seed)
		if err != nil {
			return nil, err
		}
		if err := dep.Train(ctx); err != nil {
			return nil, fmt.Errorf("experiments: ablation heterogeneity α=%v: %w", alpha, err)
		}
		res, err := dep.ours(ctx, dep.Store, dep.unlearnConfig())
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation heterogeneity α=%v: %w", alpha, err)
		}
		setting := fmt.Sprintf("dirichlet α=%g", alpha)
		if alpha == 0 {
			setting = "iid"
		}
		rows = append(rows, AblationRow{
			Setting:  setting,
			Accuracy: metrics.AccuracyAt(dep.Template.Clone(), res.Params, dep.Test),
		})
	}
	return rows, nil
}

// FormatAblation renders ablation rows.
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-20s %9s\n", "setting", "accuracy")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %9.3f\n", r.Setting, r.Accuracy)
	}
	return b.String()
}
