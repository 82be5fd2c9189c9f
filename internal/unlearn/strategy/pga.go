package strategy

import (
	"context"
	"fmt"
	"math"

	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/rng"
	"fuiov/internal/telemetry"
	"fuiov/internal/tensor"
)

// PGA is projected-gradient-ascent erasure (Halimi et al., arXiv
// 2207.05521) behind the Strategy interface: starting from the trained
// model w_T, ascend the loss on the forgotten clients' data — gradient
// *ascent* steps of size AscentRate — while projecting each iterate
// back onto an L2 ball of radius Radius around w_T, so the erased
// model forgets the targeted data without drifting into garbage. A
// short fine-tune on the remaining clients then repairs the collateral
// utility damage.
type PGA struct {
	// AscentSteps is the number of projected ascent iterations
	// (default 20).
	AscentSteps int
	// AscentRate is the ascent step size (0 = the request's learning
	// rate).
	AscentRate float64
	// Radius is the projection ball's L2 radius around w_T (0 = a
	// third of ‖w_T‖, Halimi et al.'s δ/3 heuristic with the trained
	// model's own norm standing in for the inter-client spread).
	Radius float64
	// FineTuneRounds repairs utility after erasure (0 = a tenth of the
	// original horizon).
	FineTuneRounds int
}

// Name returns "pga".
func (PGA) Name() string { return "pga" }

// Needs declares the trained model, live clients (ascent needs the
// forgotten clients' data, repair needs the rest) and the
// architecture.
func (PGA) Needs() Needs { return NeedsFinalParams | NeedsClients | NeedsTemplate }

// Unlearn ascends on the forgotten shards, projects, then fine-tunes.
func (p PGA) Unlearn(ctx context.Context, req Request) (*Result, error) {
	span := req.Telemetry.Timer(telemetry.PGATotal).Start()
	defer span.End()
	stepCount := req.Telemetry.Counter(telemetry.PGAAscentSteps)

	targets := req.forgottenClients()
	if len(targets) == 0 {
		return nil, fmt.Errorf("%w: no live handles for the forgotten clients (ascent needs their data)", ErrMissingInput)
	}
	steps := p.AscentSteps
	if steps <= 0 {
		steps = 20
	}
	rate := p.AscentRate
	if rate <= 0 {
		rate = req.LearningRate
	}
	ref := req.FinalParams
	radius := p.Radius
	if radius <= 0 {
		radius = tensor.Norm2(ref) / 3
	}

	w := tensor.CloneVec(ref)
	ascentSeed := rng.Mix(req.Seed, 0x96a)
	agg := fl.FedAvg{}
	clientWork := 0
	for step := 0; step < steps; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		grads := make(map[history.ClientID][]float64, len(targets))
		weights := make(map[history.ClientID]float64, len(targets))
		for _, c := range targets {
			g, err := c.ComputeGradient(req.Template, w, ascentSeed, step)
			if err != nil {
				return nil, fmt.Errorf("pga ascent step %d client %d: %w", step, c.ID, err)
			}
			clientWork++
			grads[c.ID] = g
			weights[c.ID] = c.Weight()
		}
		update, err := agg.Aggregate(grads, weights)
		if err != nil {
			return nil, fmt.Errorf("pga ascent step %d: %w", step, err)
		}
		// Ascent: step *up* the forgotten data's loss surface.
		tensor.AxpyInPlace(w, rate, update)
		// Project back onto the ball ‖w − w_T‖ ≤ radius.
		dist := 0.0
		for i := range w {
			d := w[i] - ref[i]
			dist += d * d
		}
		if dist > radius*radius {
			scale := radius / math.Sqrt(dist)
			for i := range w {
				w[i] = ref[i] + scale*(w[i]-ref[i])
			}
		}
		stepCount.Inc()
	}
	unlearned := tensor.CloneVec(w)

	rounds := p.FineTuneRounds
	if rounds <= 0 {
		rounds = req.fineTuneRounds()
	}
	repaired, err := fineTune(ctx, req, w, rounds, 0x96b)
	if err != nil {
		return nil, err
	}
	return &Result{
		Params:          repaired,
		Unlearned:       unlearned,
		BacktrackRound:  -1,
		RecoveredRounds: rounds,
		Forgotten:       sortedForgotten(req.Forgotten),
		ClientWork:      clientWork + rounds*len(req.remaining()),
	}, nil
}
