package strategy

import (
	"context"
	"fmt"

	"fuiov/internal/fl"
	"fuiov/internal/rng"
)

// fineTuneRounds resolves the recovery fine-tune budget shared by the
// erase-then-repair strategies (PGA, NoT): a tenth of the original
// horizon, at least one round.
func (r Request) fineTuneRounds() int {
	rounds := r.rounds() / 10
	if rounds < 1 {
		rounds = 1
	}
	return rounds
}

// fineTune runs recovery rounds of plain federated averaging over the
// remaining clients, starting from the erased parameters, and returns
// the repaired model. seedTag decorrelates the fine-tune mini-batch
// draws from original training while keeping the run deterministic in
// (req.Seed, seedTag).
func fineTune(ctx context.Context, req Request, start []float64, rounds int, seedTag uint64) ([]float64, error) {
	remaining := req.remaining()
	if len(remaining) == 0 {
		return nil, fmt.Errorf("%w: no clients remain to fine-tune on", ErrMissingInput)
	}
	tmpl := req.Template.Clone()
	tmpl.SetParamVector(start)
	sim, err := fl.NewSimulation(tmpl, remaining, fl.Config{
		LearningRate: req.LearningRate,
		Seed:         rng.Mix(req.Seed, seedTag),
		Parallelism:  req.Parallelism,
		Telemetry:    req.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	if err := sim.RunContext(ctx, rounds); err != nil {
		return nil, err
	}
	return sim.Params(), nil
}
