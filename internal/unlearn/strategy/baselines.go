package strategy

import (
	"context"
	"fmt"

	"fuiov/internal/faults"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/lbfgs"
	"fuiov/internal/rng"
	"fuiov/internal/telemetry"
	"fuiov/internal/tensor"
)

// The three recovery methods the paper compares against (§V-A3):
// training from scratch on the remaining clients (Retraining),
// FedRecover (Cao et al., S&P'23), which stores full gradients and
// periodically asks online clients for exact corrections, and
// FedRecovery (Zhang et al., TIFS'23), which removes a weighted sum of
// gradient residuals and adds Gaussian noise.

// rounds resolves the training horizon for strategies that replay or
// retrain it: the explicit request value, else whatever the provided
// history tier recorded.
func (r Request) rounds() int {
	if r.Rounds > 0 {
		return r.Rounds
	}
	if r.Full != nil {
		return r.Full.Rounds()
	}
	if r.Store != nil {
		return r.Store.Rounds()
	}
	return 0
}

// Retrain is the gold-standard baseline: train a freshly initialised
// model on every client except the forgotten ones, for the full
// original horizon — the result exact methods are compared against.
type Retrain struct {
	// faults and policy are forwarded to the inner fl.Simulation, so
	// retraining can compete under the same client unreliability as the
	// methods it is compared against. Only in-package tests set them.
	faults faults.Injector
	policy *fl.FaultPolicy
}

// Name returns "retrain".
func (Retrain) Name() string { return "retrain" }

// Needs declares live clients and the architecture; no history tier —
// retraining starts from scratch.
func (Retrain) Needs() Needs { return NeedsClients | NeedsTemplate }

// Unlearn retrains from a fresh initialisation, stopping at the next
// round boundary with the context's error if ctx is cancelled. The
// whole run is timed under unlearn.strategy.retrain.total, and the
// inner simulation's per-phase round metrics accrue to
// Request.Telemetry too.
func (s Retrain) Unlearn(ctx context.Context, req Request) (*Result, error) {
	rounds := req.rounds()
	if rounds <= 0 {
		return nil, fmt.Errorf("%w: training horizon (Rounds or a history tier)", ErrMissingInput)
	}
	span := req.Telemetry.Timer(telemetry.RetrainTotal).Start()
	defer span.End()
	remaining := req.remaining()
	if len(remaining) == 0 {
		return nil, fmt.Errorf("retrain: no clients remain after forgetting %d", len(req.Forgotten))
	}
	fresh := req.Template.Clone()
	fresh.Init(rng.New(req.Seed).Split(0xfe7a11))
	sim, err := fl.NewSimulation(fresh, remaining, fl.Config{
		LearningRate: req.LearningRate,
		Seed:         req.Seed,
		Parallelism:  req.Parallelism,
		Telemetry:    req.Telemetry,
		Faults:       s.faults,
		FaultPolicy:  s.policy,
	})
	if err != nil {
		return nil, fmt.Errorf("retrain: %w", err)
	}
	if err := sim.RunContext(ctx, rounds); err != nil {
		return nil, fmt.Errorf("retrain: %w", err)
	}
	params := sim.Params()
	return &Result{
		Params:          params,
		Unlearned:       tensor.CloneVec(params),
		BacktrackRound:  -1,
		RecoveredRounds: rounds,
		Forgotten:       sortedForgotten(req.Forgotten),
		ClientWork:      rounds * len(remaining),
	}, nil
}

// FedRecover's exact-gradient schedule as the paper's §V-A3 runs it:
// real gradients for the first fedRecoverWarmup rounds and every
// fedRecoverEvery rounds thereafter. fedRecoverMaxEstimate is its
// abnormality check: a Hessian correction whose norm exceeds this
// multiple of the stored gradient's norm is scaled down to the cap.
const (
	fedRecoverWarmup      = 2
	fedRecoverEvery       = 20
	fedRecoverMaxEstimate = 2.0
)

// FedRecover is the Cao et al. (S&P'23) baseline: recover the global
// model by replaying every round from the original initial model,
// estimating the remaining clients' gradients with the Cauchy mean
// value theorem + L-BFGS over *full* stored gradients
// (Request.Unlearn.PairSize is the L-BFGS memory, 0 = 2) and correcting
// the estimate with exact client computations on a schedule. Unlike the
// paper's scheme it requires (a) full gradients in storage and (b)
// clients to be online.
type FedRecover struct {
	// warmup and correctEvery override the paper's schedule
	// (fedRecoverWarmup, fedRecoverEvery) when non-zero; in-package
	// tests shorten it for their short horizons.
	warmup, correctEvery int
	// faults, when non-nil, injects client unreliability into the
	// exact-gradient calls (FedRecover's weak spot: unlike the paper's
	// scheme it depends on clients being online during recovery).
	// policy, when non-nil, applies the round engine's deadline and
	// retry handling to every exact-gradient call and arms the
	// offline fallback: an exact correction whose client stays
	// unreachable after the retry budget — or is simply no longer in
	// the fleet — degrades to the L-BFGS estimated path for that
	// client-round instead of aborting the recovery. When nil any
	// unreachable client aborts. Only in-package tests set them.
	faults faults.Injector
	policy *fl.FaultPolicy
}

// Name returns "fedrecover".
func (FedRecover) Name() string { return "fedrecover" }

// Needs declares the full-gradient tier plus live clients (for exact
// corrections) and the architecture.
func (FedRecover) Needs() Needs { return NeedsFullHistory | NeedsClients | NeedsTemplate }

// Unlearn replays the whole horizon, stopping at the next replayed-round
// boundary with the context's error if ctx is cancelled. The run is
// timed under unlearn.strategy.fedrecover.total and its exact-call,
// estimated-round, retry and offline-fallback tallies are mirrored as
// counters; Result.ClientWork is the exact-call count (warm-up +
// periodic corrections) — the client-side cost the paper's scheme
// eliminates.
func (s FedRecover) Unlearn(ctx context.Context, req Request) (*Result, error) {
	if err := s.policy.Validate(); err != nil {
		return nil, err
	}
	warmup, correctEvery := fedRecoverWarmup, fedRecoverEvery
	if s.warmup > 0 {
		warmup = s.warmup
	}
	if s.correctEvery > 0 {
		correctEvery = s.correctEvery
	}
	pairSize := req.Unlearn.PairSize
	if pairSize == 0 {
		pairSize = 2
	}
	tel, full, eta := req.Telemetry, req.Full, req.LearningRate
	span := tel.Timer(telemetry.FedRecoverTotal).Start()
	defer span.End()
	total := full.Rounds()
	if total == 0 {
		return nil, fmt.Errorf("fedrecover: %w", history.ErrNoHistory)
	}
	excluded := req.forgottenSet()
	clientByID := make(map[history.ClientID]*fl.Client, len(req.Clients))
	for _, c := range req.Clients {
		clientByID[c.ID] = c
	}

	type state struct {
		pairs  *lbfgs.PairBuffer
		approx *lbfgs.Approx
	}
	states := make(map[history.ClientID]*state)
	stateFor := func(id history.ClientID) (*state, error) {
		if st, ok := states[id]; ok {
			return st, nil
		}
		pb, err := lbfgs.NewPairBuffer(pairSize)
		if err != nil {
			return nil, err
		}
		st := &state{pairs: pb}
		states[id] = st
		return st, nil
	}

	exactCalls, estimatedRounds := 0, 0
	// FedRecover re-initialises to the original round-0 model and
	// replays the full horizon.
	wBar, err := full.Model(0)
	if err != nil {
		return nil, fmt.Errorf("fedrecover: %w", err)
	}
	agg := fl.FedAvg{}
	for t := 0; t < total; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		participants, err := full.Participants(t)
		if err != nil {
			return nil, err
		}
		wT, err := full.Model(t)
		if err != nil {
			return nil, err
		}
		deltaW := tensor.Sub(wBar, wT)
		exact := t < warmup || t%correctEvery == 0
		if !exact {
			estimatedRounds++
		}

		grads := make(map[history.ClientID][]float64, len(participants))
		weights := make(map[history.ClientID]float64, len(participants))
		for _, id := range participants {
			if excluded[id] {
				continue
			}
			gT, err := full.Gradient(t, id)
			if err != nil {
				return nil, err
			}
			st, err := stateFor(id)
			if err != nil {
				return nil, err
			}
			var est []float64
			useEstimate := !exact
			if exact {
				exactCalls++
				c := clientByID[id] // nil for clients gone from the fleet
				fresh, retries, callErr := fl.CallClient(ctx, s.faults, s.policy,
					req.Seed, c, req.Template, wBar, t)
				tel.Counter(telemetry.FedRecoverRetries).Add(int64(retries))
				if callErr != nil {
					if ctx.Err() != nil {
						return nil, ctx.Err()
					}
					if s.policy == nil {
						if c == nil {
							return nil, fmt.Errorf("fedrecover needs online client %d: %w", id, fl.ErrUnknownClient)
						}
						return nil, fmt.Errorf("fedrecover client %d: %w", id, callErr)
					}
					// Offline fallback: the client stayed unreachable
					// after the retry budget, so this correction
					// degrades to the estimated path.
					tel.Counter(telemetry.FedRecoverOffline).Inc()
					useEstimate = true
				} else {
					est = fresh
					// Exact rounds feed fresh vector pairs.
					if err := st.pairs.Push(deltaW, tensor.Sub(est, gT)); err == nil {
						if a, err := st.pairs.Build(); err == nil {
							st.approx = a
						}
					}
				}
			}
			if useEstimate {
				est = tensor.CloneVec(gT)
				if st.approx != nil {
					if hv, err := st.approx.HVP(deltaW); err == nil {
						// Abnormality check: a correction far larger
						// than the recorded gradient signals a
						// diverging approximation. Scale it down
						// rather than dropping it so the stabilising
						// feedback of eq. 6 survives.
						cap := fedRecoverMaxEstimate * (tensor.Norm2(gT) + 1e-12)
						if n := tensor.Norm2(hv); n > cap {
							tensor.ScaleInPlace(cap/n, hv)
						}
						tensor.AddInPlace(est, hv)
					}
				}
			}
			grads[id] = est
			w, err := full.Weight(t, id)
			if err != nil {
				return nil, err
			}
			weights[id] = w
		}
		if len(grads) > 0 {
			a, err := agg.Aggregate(grads, weights)
			if err != nil {
				return nil, fmt.Errorf("fedrecover round %d: %w", t, err)
			}
			tensor.AxpyInPlace(wBar, -eta, a)
		}
	}
	tel.Counter(telemetry.FedRecoverExact).Add(int64(exactCalls))
	tel.Counter(telemetry.FedRecoverEstimated).Add(int64(estimatedRounds))
	return &Result{
		Params:          wBar,
		Unlearned:       tensor.CloneVec(wBar),
		BacktrackRound:  0, // replays from the initial model
		RecoveredRounds: total,
		Forgotten:       sortedForgotten(req.Forgotten),
		StorageBytes:    int64(full.StorageBytes()),
		ClientWork:      exactCalls,
	}, nil
}

// FedRecovery is the Zhang et al. (TIFS'23) baseline: approximate
// unlearning that removes a weighted sum of the forgotten clients'
// gradient residuals from the final model and adds Gaussian noise
// (Request.Noise) to make the unlearned model statistically
// indistinguishable from a retrained one.
type FedRecovery struct{}

// Name returns "fedrecovery".
func (FedRecovery) Name() string { return "fedrecovery" }

// Needs declares the full-gradient tier and the trained model; no
// clients — the correction is closed-form over history.
func (FedRecovery) Needs() Needs { return NeedsFullHistory | NeedsFinalParams }

// Unlearn computes the unlearned model
//
//	w_u = w_T + η·Σ_t (A_t(all) − A_t(remaining)) + N(0, σ²)
//
// i.e. it subtracts, to first order, the marginal contribution of the
// forgotten clients to every aggregation step, then perturbs the
// result. Request.FinalParams is the trained global model w_T (the
// history stores only pre-update snapshots). The pass stops at the next
// replayed-round boundary with the context's error if ctx is cancelled
// and is timed under unlearn.strategy.fedrecovery.total.
func (FedRecovery) Unlearn(ctx context.Context, req Request) (*Result, error) {
	full, eta := req.Full, req.LearningRate
	if req.Noise < 0 {
		return nil, fmt.Errorf("fedrecovery: negative noise stddev %v", req.Noise)
	}
	if len(req.FinalParams) != full.Dim() {
		return nil, fmt.Errorf("fedrecovery: final model dimension %d, want %d", len(req.FinalParams), full.Dim())
	}
	span := req.Telemetry.Timer(telemetry.FedRecoveryTotal).Start()
	defer span.End()
	excluded := req.forgottenSet()
	agg := fl.FedAvg{}
	out := tensor.CloneVec(req.FinalParams)
	for t := 0; t < full.Rounds(); t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		participants, err := full.Participants(t)
		if err != nil {
			return nil, err
		}
		anyForgotten := false
		for _, id := range participants {
			if excluded[id] {
				anyForgotten = true
				break
			}
		}
		if !anyForgotten {
			continue // the round's update is unchanged by unlearning
		}
		gradsAll := make(map[history.ClientID][]float64, len(participants))
		weightsAll := make(map[history.ClientID]float64, len(participants))
		gradsRem := make(map[history.ClientID][]float64, len(participants))
		weightsRem := make(map[history.ClientID]float64, len(participants))
		for _, id := range participants {
			g, err := full.Gradient(t, id)
			if err != nil {
				return nil, err
			}
			w, err := full.Weight(t, id)
			if err != nil {
				return nil, err
			}
			gradsAll[id] = g
			weightsAll[id] = w
			if !excluded[id] {
				gradsRem[id] = g
				weightsRem[id] = w
			}
		}
		aAll, err := agg.Aggregate(gradsAll, weightsAll)
		if err != nil {
			return nil, fmt.Errorf("fedrecovery round %d: %w", t, err)
		}
		var aRem []float64
		if len(gradsRem) > 0 {
			aRem, err = agg.Aggregate(gradsRem, weightsRem)
			if err != nil {
				return nil, fmt.Errorf("fedrecovery round %d: %w", t, err)
			}
		} else {
			// Every participant is forgotten: the counterfactual round
			// applies no update at all.
			aRem = make([]float64, full.Dim())
		}
		// w_u += η·(A_all − A_remaining): adds back the forgotten
		// influence that training subtracted.
		residual := tensor.Sub(aAll, aRem)
		tensor.AxpyInPlace(out, eta, residual)
	}
	if req.Noise > 0 {
		r := rng.New(rng.Mix(req.Seed, 0xfedc))
		for i := range out {
			out[i] += r.NormalScaled(0, req.Noise)
		}
	}
	return &Result{
		Params:          out,
		Unlearned:       tensor.CloneVec(out),
		BacktrackRound:  -1,
		RecoveredRounds: 0,
		Forgotten:       sortedForgotten(req.Forgotten),
		StorageBytes:    int64(full.StorageBytes()),
	}, nil
}
