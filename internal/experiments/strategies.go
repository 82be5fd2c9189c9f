package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"fuiov/internal/metrics"
	"fuiov/internal/unlearn/strategy"
	"fuiov/internal/verify"
)

// StrategyRow is one strategy's scorecard from the comparative
// harness: how well the unlearned model performs, how much replaying
// it took, what server-side storage it leaned on and how long the
// whole operation ran.
type StrategyRow struct {
	// Strategy is the registry name.
	Strategy string `json:"strategy"`
	// Accuracy is the post-unlearning test accuracy of the final
	// (recovered) model.
	Accuracy float64 `json:"accuracy"`
	// ErasedAccuracy is the test accuracy immediately after erasure,
	// before any recovery rounds — how much utility the raw erasure
	// step costs.
	ErasedAccuracy float64 `json:"erased_accuracy"`
	// BacktrackRound is F for backtracking strategies, −1 otherwise.
	BacktrackRound int `json:"backtrack_round"`
	// RecoveredRounds counts FL-equivalent rounds run to recover.
	RecoveredRounds int `json:"recovered_rounds"`
	// StorageBytes is the per-round gradient state read from the
	// server's history tiers.
	StorageBytes int64 `json:"storage_bytes"`
	// ClientWork counts client-side gradient computations demanded
	// during unlearning.
	ClientWork int `json:"client_work"`
	// WallMillis is the end-to-end wall time of the strategy run.
	WallMillis float64 `json:"wall_ms"`
	// Forgetting is the strategy's forgetting scorecard (shadow-model
	// MIA advantage, backdoor retention, relearn time) when the run
	// verified forgetting; nil — omitted from JSON, never zeroed —
	// when verification was skipped (a nil verify.Config, i.e.
	// `fuiov strategies` without -verify).
	Forgetting *verify.Score `json:"forgetting,omitempty"`
}

// CompareStrategiesVerified trains one seeded deployment (Digits, no
// attack, one benign late joiner requesting erasure) and runs every
// named strategy — all registered ones when names is empty — against
// the same trained federation, so the rows differ only by algorithm.
// The deployment is trained exactly once; strategies must not mutate
// it, which the Request contract demands. When vcfg is non-nil, one
// verify.Suite (shadow models and membership attack fitted once
// against the shared deployment) scores every strategy's unlearned
// model, filling each row's Forgetting block; a nil vcfg skips
// verification and every row's Forgetting is nil (omitted from JSON,
// not zeroed).
func CompareStrategiesVerified(ctx context.Context, scale Scale, seed uint64, names []string, vcfg *verify.Config) ([]StrategyRow, error) {
	if len(names) == 0 {
		names = strategy.Names()
	}
	dep, err := NewDeployment(Digits, NoAttack, scale, seed)
	if err != nil {
		return nil, err
	}
	if err := dep.Train(ctx); err != nil {
		return nil, err
	}
	req := dep.request()
	var suite *verify.Suite
	if vcfg != nil {
		suite, err = verify.NewSuite(ctx, verify.Target{
			Template:     dep.Template,
			Clients:      dep.Clients,
			Forgotten:    dep.Forgotten(),
			Test:         dep.Test,
			Before:       req.FinalParams,
			LearningRate: req.LearningRate,
			Seed:         seed,
			Backdoor:     dep.Backdoor,
		}, *vcfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: verify suite: %w", err)
		}
	}
	eval := dep.Template.Clone()
	rows := make([]StrategyRow, 0, len(names))
	for _, name := range names {
		start := time.Now()
		res, err := strategy.Unlearn(ctx, name, req)
		if err != nil {
			return nil, fmt.Errorf("experiments: strategy %s: %w", name, err)
		}
		row := StrategyRow{
			Strategy:        name,
			Accuracy:        metrics.AccuracyAt(eval, res.Params, dep.Test),
			ErasedAccuracy:  metrics.AccuracyAt(eval, res.Unlearned, dep.Test),
			BacktrackRound:  res.BacktrackRound,
			RecoveredRounds: res.RecoveredRounds,
			StorageBytes:    res.StorageBytes,
			ClientWork:      res.ClientWork,
			// Wall time covers the strategy run itself, not the
			// verification pass — rows stay comparable with and
			// without -verify.
			WallMillis: float64(time.Since(start).Microseconds()) / 1000,
		}
		if suite != nil {
			sc, err := suite.Score(ctx, res.Params)
			if err != nil {
				return nil, fmt.Errorf("experiments: verify %s: %w", name, err)
			}
			row.Forgetting = &sc
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatStrategies renders the comparison in the repo's table layout.
// The forgetting columns appear only when at least one row carries a
// verification scorecard.
func FormatStrategies(rows []StrategyRow) string {
	verified := false
	for _, r := range rows {
		if r.Forgetting != nil {
			verified = true
			break
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "STRATEGY COMPARISON — one seeded scenario, every algorithm\n")
	fmt.Fprintf(&b, "%-12s %9s %8s %6s %9s %12s %11s %9s",
		"Strategy", "Accuracy", "Erased", "Back", "Recov.rds", "StorageBytes", "ClientWork", "Wall(ms)")
	if verified {
		fmt.Fprintf(&b, " %15s %8s", "MIA(bef→aft)", "Relearn")
	}
	fmt.Fprintln(&b)
	for _, r := range rows {
		back := fmt.Sprintf("%d", r.BacktrackRound)
		if r.BacktrackRound < 0 {
			back = "—"
		}
		fmt.Fprintf(&b, "%-12s %9.3f %8.3f %6s %9d %12d %11d %9.1f",
			r.Strategy, r.Accuracy, r.ErasedAccuracy, back, r.RecoveredRounds,
			r.StorageBytes, r.ClientWork, r.WallMillis)
		if verified {
			if f := r.Forgetting; f != nil {
				relearn := fmt.Sprintf("%d", f.RelearnRounds)
				if f.RelearnRounds < 0 {
					relearn = ">cap"
				}
				fmt.Fprintf(&b, " %6.3f→%-8.3f %8s",
					f.MIAAdvantageBefore, f.MIAAdvantageAfter, relearn)
			} else {
				fmt.Fprintf(&b, " %15s %8s", "—", "—")
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// WriteStrategiesJSON emits the rows as the BENCH_strategies.json
// record: {"experiment": "strategies", "strategies": [...]}.
func WriteStrategiesJSON(w io.Writer, rows []StrategyRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Experiment string        `json:"experiment"`
		Strategies []StrategyRow `json:"strategies"`
	}{Experiment: "strategies", Strategies: rows})
}
