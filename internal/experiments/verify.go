package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"fuiov/internal/metrics"
	"fuiov/internal/unlearn/strategy"
	"fuiov/internal/verify"
)

// VerifyRow is one strategy's forgetting scorecard from the
// verification harness.
type VerifyRow struct {
	// Strategy is the registry name.
	Strategy string `json:"strategy"`
	// Accuracy is the unlearned model's clean test accuracy — the
	// utility that forgetting cost.
	Accuracy float64 `json:"accuracy"`
	// Score is the forgetting scorecard (MIA advantage, backdoor
	// retention, relearn time).
	verify.Score
}

// VerifyStrategies trains one seeded backdoored deployment (Digits,
// 20% malicious clients stamping the paper's 3×3 trigger), runs every
// named strategy — all registered ones when names is empty — to erase
// the malicious clients, and scores each unlearned model with a shared
// verify.Suite. The backdoor deployment makes the forgotten data
// distinctive, so all three signals (membership inference, trigger
// retention, relearn time) are meaningful; the shadow models and the
// membership attack are fitted once and reused across strategies.
func VerifyStrategies(ctx context.Context, scale Scale, seed uint64, names []string, cfg verify.Config) ([]VerifyRow, error) {
	if len(names) == 0 {
		names = strategy.Names()
	}
	dep, err := NewDeployment(Digits, BackdoorAttack, scale, seed)
	if err != nil {
		return nil, err
	}
	if err := dep.Train(ctx); err != nil {
		return nil, err
	}
	req := dep.request()
	if cfg.Telemetry == nil {
		cfg.Telemetry = scale.Telemetry
	}
	suite, err := verify.NewSuite(ctx, verify.Target{
		Template:     dep.Template,
		Clients:      dep.Clients,
		Forgotten:    dep.Forgotten(),
		Test:         dep.Test,
		Before:       req.FinalParams,
		LearningRate: req.LearningRate,
		Seed:         seed,
		Backdoor:     dep.Backdoor,
	}, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: verify suite: %w", err)
	}
	eval := dep.Template.Clone()
	rows := make([]VerifyRow, 0, len(names))
	for _, name := range names {
		res, err := strategy.Unlearn(ctx, name, req)
		if err != nil {
			return nil, fmt.Errorf("experiments: strategy %s: %w", name, err)
		}
		sc, err := suite.Score(ctx, res.Params)
		if err != nil {
			return nil, fmt.Errorf("experiments: verify %s: %w", name, err)
		}
		rows = append(rows, VerifyRow{
			Strategy: name,
			Accuracy: metrics.AccuracyAt(eval, res.Params, dep.Test),
			Score:    sc,
		})
	}
	return rows, nil
}

// FormatVerify renders the forgetting scorecards in the repo's table
// layout.
func FormatVerify(rows []VerifyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FORGETTING VERIFICATION — backdoored deployment, malicious clients erased\n")
	fmt.Fprintf(&b, "%-12s %9s %15s %22s %8s\n",
		"Strategy", "Accuracy", "MIA(bef→aft)", "Backdoor(bef→aft→rel)", "Relearn")
	for _, r := range rows {
		bd := "—"
		if r.BackdoorBefore != nil && r.BackdoorAfter != nil {
			rel := "    —"
			if r.BackdoorRelearn != nil {
				rel = fmt.Sprintf("%.3f", *r.BackdoorRelearn)
			}
			bd = fmt.Sprintf("%.3f→%.3f→%s", *r.BackdoorBefore, *r.BackdoorAfter, rel)
		}
		relearn := fmt.Sprintf("%d", r.RelearnRounds)
		if r.RelearnRounds < 0 {
			relearn = ">cap"
		}
		fmt.Fprintf(&b, "%-12s %9.3f %6.3f→%-8.3f %22s %8s\n",
			r.Strategy, r.Accuracy, r.MIAAdvantageBefore, r.MIAAdvantageAfter, bd, relearn)
	}
	return b.String()
}

// WriteVerifyJSON emits the rows as the BENCH_verify.json record:
// {"experiment": "verify", "rows": [...]}.
func WriteVerifyJSON(w io.Writer, rows []VerifyRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Experiment string      `json:"experiment"`
		Rows       []VerifyRow `json:"rows"`
	}{Experiment: "verify", Rows: rows})
}
