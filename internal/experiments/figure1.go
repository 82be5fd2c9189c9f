package experiments

import (
	"context"
	"fmt"
	"strings"

	"fuiov/internal/attack"
	"fuiov/internal/metrics"
)

// Figure1Row is one attack's trajectory through the unlearning
// pipeline: attack success rate before unlearning, after forgetting
// (backtracking), and after recovery. Test accuracy at each stage is
// included as supporting context.
type Figure1Row struct {
	Attack string
	// ASR at the three stages of Fig. 1.
	BeforeUnlearning float64
	AfterForgetting  float64
	AfterRecovery    float64
	// Accuracy at the same stages.
	AccBefore, AccForgotten, AccRecovered float64
}

// Figure1 reproduces Fig. 1: 20% of clients mount a label-flip or
// backdoor attack from round F; the server unlearns them. Expected
// shape: high ASR before, near-zero after forgetting, and no
// resurgence after recovery.
func Figure1(ctx context.Context, scale Scale, seed uint64) ([]Figure1Row, error) {
	rows := make([]Figure1Row, 0, 2)
	for _, atk := range []AttackKind{LabelFlipAttack, BackdoorAttack} {
		row, err := figure1Row(ctx, atk, scale, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure1 %s: %w", atk, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func figure1Row(ctx context.Context, atk AttackKind, scale Scale, seed uint64) (Figure1Row, error) {
	dep, err := NewDeployment(Digits, atk, scale, seed)
	if err != nil {
		return Figure1Row{}, err
	}
	if err := dep.Train(ctx); err != nil {
		return Figure1Row{}, err
	}
	row := Figure1Row{Attack: atk.String()}
	eval := dep.Template.Clone()
	asr := func(params []float64) float64 {
		eval.SetParamVector(params)
		switch atk {
		case BackdoorAttack:
			return dep.Backdoor.SuccessRate(eval, dep.Test)
		default:
			return attack.FlipSuccessRate(eval, dep.Test, dep.FlipSource, dep.FlipTarget)
		}
	}

	final := dep.Sim.Params()
	row.BeforeUnlearning = asr(final)
	row.AccBefore = metrics.AccuracyAt(eval, final, dep.Test)

	res, err := dep.ours(ctx, dep.Store, dep.unlearnConfig())
	if err != nil {
		return Figure1Row{}, err
	}
	row.AfterForgetting = asr(res.Unlearned)
	row.AccForgotten = metrics.AccuracyAt(eval, res.Unlearned, dep.Test)
	row.AfterRecovery = asr(res.Params)
	row.AccRecovered = metrics.AccuracyAt(eval, res.Params, dep.Test)
	return row, nil
}

// FormatFigure1 renders the attack-success-rate bars of Fig. 1 as a
// text table.
func FormatFigure1(rows []Figure1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1 — Attack success rate across unlearning stages (MNIST-synth)\n")
	fmt.Fprintf(&b, "%-10s %18s %18s %16s\n", "Attack", "Before unlearning", "After forgetting", "After recovery")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %17.1f%% %17.1f%% %15.1f%%\n",
			r.Attack, 100*r.BeforeUnlearning, 100*r.AfterForgetting, 100*r.AfterRecovery)
	}
	fmt.Fprintf(&b, "\nSupporting test accuracy\n")
	fmt.Fprintf(&b, "%-10s %18s %18s %16s\n", "Attack", "Before", "Forgotten", "Recovered")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %18.3f %18.3f %16.3f\n",
			r.Attack, r.AccBefore, r.AccForgotten, r.AccRecovered)
	}
	return b.String()
}
