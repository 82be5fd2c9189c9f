package strategy

import (
	"context"

	"fuiov/internal/telemetry"
	"fuiov/internal/unlearn"
)

// Paper is the paper's unlearning scheme behind the Strategy
// interface: backtrack to the forgotten clients' earliest join round
// and recover server-side from the 2-bit direction history with
// L-BFGS-estimated gradients (eq. 5–7). It delegates to
// unlearn.Unlearner unchanged, so the result is bit-identical to the
// pre-strategy-layer Unlearner.UnlearnContext path.
type Paper struct{}

// Name returns "paper".
func (Paper) Name() string { return "paper" }

// Needs declares the 2-bit direction store; no live clients, no full
// gradients — the paper's whole point.
func (Paper) Needs() Needs { return NeedsDirectionStore }

// Unlearn backtracks and recovers through unlearn.Unlearner.
func (Paper) Unlearn(ctx context.Context, req Request) (*Result, error) {
	cfg := req.Unlearn
	cfg.LearningRate = req.LearningRate
	if cfg.Parallelism == 0 {
		cfg.Parallelism = req.Parallelism
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = req.Telemetry
	}
	span := req.Telemetry.Timer(telemetry.StrategyPaperTotal).Start()
	defer span.End()
	u, err := unlearn.New(req.Store, cfg)
	if err != nil {
		return nil, err
	}
	res, err := u.UnlearnContext(ctx, req.Forgotten...)
	if err != nil {
		return nil, err
	}
	rep := req.Store.Storage()
	return &Result{
		Params:          res.Params,
		Unlearned:       res.Unlearned,
		BacktrackRound:  res.BacktrackRound,
		RecoveredRounds: res.RecoveredRounds,
		Forgotten:       res.Forgotten,
		StorageBytes:    int64(rep.DirectionBytes),
		ClientWork:      0, // recovery is fully server-side
		Paper:           res,
	}, nil
}
