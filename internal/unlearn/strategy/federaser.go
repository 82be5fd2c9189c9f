package strategy

import (
	"context"
	"fmt"
	"math"

	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/telemetry"
	"fuiov/internal/tensor"
)

// FedEraser is the calibrated re-aggregation strategy of Liu et al.
// (arXiv 2012.13891) adapted to this repo's storage: replay training
// from the forgotten clients' earliest join round F, asking each
// remaining participant for one fresh gradient per replayed round and
// rescaling it to the norm of the update that round originally stored
//
//	ĝ = ‖g_stored‖ · u_fresh / ‖u_fresh‖,
//
// so the replay keeps the original updates' magnitudes (the stored
// "direction" of progress) while re-deriving their directions from
// models that never saw the forgotten data. Participants without a
// live handle fall back to their stored gradient uncalibrated, so a
// partially reachable fleet degrades instead of aborting.
type FedEraser struct{}

// Name returns "federaser".
func (FedEraser) Name() string { return "federaser" }

// Needs declares the full-gradient tier (for stored norms, models and
// participation), live clients (fresh updates) and the architecture.
func (FedEraser) Needs() Needs { return NeedsFullHistory | NeedsClients | NeedsTemplate }

// Unlearn replays rounds F..T−1 with calibrated updates.
func (FedEraser) Unlearn(ctx context.Context, req Request) (*Result, error) {
	span := req.Telemetry.Timer(telemetry.FedEraserTotal).Start()
	defer span.End()
	calibrated := req.Telemetry.Counter(telemetry.FedEraserCalibrated)

	full, eta := req.Full, req.LearningRate
	backtrack := math.MaxInt
	for _, id := range req.Forgotten {
		f, err := full.JoinRound(id)
		if err != nil {
			return nil, err
		}
		if f < backtrack {
			backtrack = f
		}
	}
	excluded := req.forgottenSet()
	live := make(map[history.ClientID]*fl.Client, len(req.Clients))
	for _, c := range req.Clients {
		live[c.ID] = c
	}

	w, err := full.Model(backtrack)
	if err != nil {
		return nil, err
	}
	w = tensor.CloneVec(w)
	unlearned := tensor.CloneVec(w)
	agg := fl.FedAvg{}
	clientWork := 0
	for t := backtrack; t < full.Rounds(); t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		participants, err := full.Participants(t)
		if err != nil {
			return nil, err
		}
		grads := make(map[history.ClientID][]float64, len(participants))
		weights := make(map[history.ClientID]float64, len(participants))
		for _, id := range participants {
			if excluded[id] {
				continue
			}
			stored, err := full.Gradient(t, id)
			if err != nil {
				return nil, err
			}
			weight, err := full.Weight(t, id)
			if err != nil {
				return nil, err
			}
			g := stored
			if c, ok := live[id]; ok {
				fresh, err := c.ComputeGradient(req.Template, w, req.Seed, t)
				if err != nil {
					return nil, fmt.Errorf("federaser round %d client %d: %w", t, id, err)
				}
				clientWork++
				storedNorm, freshNorm := tensor.Norm2(stored), tensor.Norm2(fresh)
				if storedNorm > 0 && freshNorm > 0 {
					tensor.ScaleInPlace(storedNorm/freshNorm, fresh)
					g = fresh
					calibrated.Inc()
				}
			}
			grads[id] = g
			weights[id] = weight
		}
		if len(grads) == 0 {
			continue // every participant was forgotten; the round contributes nothing
		}
		update, err := agg.Aggregate(grads, weights)
		if err != nil {
			return nil, fmt.Errorf("federaser round %d: %w", t, err)
		}
		tensor.AxpyInPlace(w, -eta, update)
	}
	return &Result{
		Params:          w,
		Unlearned:       unlearned,
		BacktrackRound:  backtrack,
		RecoveredRounds: full.Rounds() - backtrack,
		Forgotten:       sortedForgotten(req.Forgotten),
		StorageBytes:    int64(full.StorageBytes()),
		ClientWork:      clientWork,
	}, nil
}
