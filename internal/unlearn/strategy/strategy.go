// Package strategy defines the pluggable unlearning-strategy layer: a
// single interface over every unlearning algorithm in the repo — the
// paper's 2-bit-direction scheme, the three comparison baselines
// (retraining, FedRecover, FedRecovery) and three competitors from
// related work (FedEraser, projected-gradient-ascent erasure, NoT
// weight negation) — plus a registry so in-process callers select
// algorithms by name at runtime (facade, cmd flags, experiments). The
// networked RSU (POST /v1/unlearn) is not one of them: it runs only
// the paper's scheme, through unlearn.Unlearner directly.
//
// Every strategy consumes the same Request and produces the same
// Result, but algorithms differ in which inputs they can work from: a
// Needs bitmask declares the required history tier and federation
// handles, and Request.Validate checks them up front so a caller can
// answer "this strategy is not satisfiable here" before any work
// happens.
//
// To add a strategy: implement the three-method interface in this
// package, pick telemetry names under unlearn.strategy.<name>., and
// add an instance to the strategies table in name order. See DESIGN.md
// §14.
package strategy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/nn"
	"fuiov/internal/telemetry"
	"fuiov/internal/unlearn"
)

// Needs is a capability bitmask: the inputs a strategy requires from
// the Request. Validate rejects a request that lacks a declared need,
// so strategies can assume their inputs are present.
type Needs uint32

const (
	// NeedsDirectionStore requires the paper's 2-bit direction history
	// (Request.Store).
	NeedsDirectionStore Needs = 1 << iota
	// NeedsFullHistory requires full float64 per-round gradients
	// (Request.Full).
	NeedsFullHistory
	// NeedsClients requires live client handles for fresh gradient
	// computations (Request.Clients).
	NeedsClients
	// NeedsTemplate requires the model architecture (Request.Template).
	NeedsTemplate
	// NeedsFinalParams requires the trained global model w_T
	// (Request.FinalParams).
	NeedsFinalParams
)

// Has reports whether every capability in mask is set.
func (n Needs) Has(mask Needs) bool { return n&mask == mask }

// String lists the set capabilities, for error messages.
func (n Needs) String() string {
	var parts []string
	for _, e := range []struct {
		bit  Needs
		name string
	}{
		{NeedsDirectionStore, "direction-store"},
		{NeedsFullHistory, "full-history"},
		{NeedsClients, "clients"},
		{NeedsTemplate, "template"},
		{NeedsFinalParams, "final-params"},
	} {
		if n.Has(e.bit) {
			parts = append(parts, e.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Request carries everything any registered strategy might need. A
// caller fills what its deployment has; Validate checks the subset a
// particular strategy declares via Needs. Strategies must not mutate
// the referenced stores, clients or parameter slices.
type Request struct {
	// Forgotten lists the clients to erase. Required by every
	// strategy.
	Forgotten []history.ClientID
	// Store is the paper's 2-bit direction history (NeedsDirectionStore).
	Store *history.Store
	// Full is the full-gradient history tier (NeedsFullHistory).
	Full *FullHistory
	// Template is the model architecture (NeedsTemplate). Strategies
	// clone it before mutating parameters.
	Template *nn.Network
	// Clients are the live federation handles (NeedsClients),
	// including the forgotten ones — each strategy excludes them
	// itself.
	Clients []*fl.Client
	// FinalParams is the trained global model w_T (NeedsFinalParams).
	FinalParams []float64
	// LearningRate is η, shared with original training: the one rate
	// every strategy reads. Required; a finite positive number.
	LearningRate float64
	// Rounds is the original training horizon T, used by strategies
	// that retrain or fine-tune. 0 falls back to what the provided
	// history tier recorded.
	Rounds int
	// Seed matches the training seed so fresh gradient computations
	// reuse the original mini-batch law.
	Seed uint64
	// Parallelism bounds concurrent client computations (0 =
	// GOMAXPROCS).
	Parallelism int
	// Noise is the Gaussian σ for strategies that perturb their result
	// for indistinguishability (FedRecovery). 0 disables noise.
	Noise float64
	// Unlearn carries the paper-scheme knobs (pair size, clip
	// threshold, refresh period, bootstrap hooks). Only the paper
	// strategy reads it, with its LearningRate replaced by the
	// request's; its zero value selects the paper defaults.
	Unlearn unlearn.Config
	// Telemetry, when non-nil, receives each strategy's timers and
	// counters under unlearn.strategy.<name>. Nil disables
	// instrumentation at ~zero cost.
	Telemetry *telemetry.Registry
}

// Validate checks the request against a strategy's declared needs and
// the universally required fields. Failures wrap ErrMissingInput.
func (r Request) Validate(needs Needs) error {
	if len(r.Forgotten) == 0 {
		return fmt.Errorf("%w: no clients to forget", ErrMissingInput)
	}
	if !(r.LearningRate > 0 && r.LearningRate <= math.MaxFloat64) {
		return fmt.Errorf("%w: learning rate %v is not a finite positive number", ErrMissingInput, r.LearningRate)
	}
	if needs.Has(NeedsDirectionStore) && r.Store == nil {
		return fmt.Errorf("%w: direction store required", ErrMissingInput)
	}
	if needs.Has(NeedsFullHistory) && r.Full == nil {
		return fmt.Errorf("%w: full-gradient history required", ErrMissingInput)
	}
	if needs.Has(NeedsClients) && len(r.Clients) == 0 {
		return fmt.Errorf("%w: live clients required", ErrMissingInput)
	}
	if needs.Has(NeedsTemplate) && r.Template == nil {
		return fmt.Errorf("%w: model template required", ErrMissingInput)
	}
	if needs.Has(NeedsFinalParams) && len(r.FinalParams) == 0 {
		return fmt.Errorf("%w: final model parameters required", ErrMissingInput)
	}
	return nil
}

// forgottenSet returns the forgotten IDs as a lookup.
func (r Request) forgottenSet() map[history.ClientID]bool {
	out := make(map[history.ClientID]bool, len(r.Forgotten))
	for _, id := range r.Forgotten {
		out[id] = true
	}
	return out
}

// remaining returns the live clients minus the forgotten set.
func (r Request) remaining() []*fl.Client {
	excluded := r.forgottenSet()
	out := make([]*fl.Client, 0, len(r.Clients))
	for _, c := range r.Clients {
		if !excluded[c.ID] {
			out = append(out, c)
		}
	}
	return out
}

// forgottenClients returns the live client handles of the forgotten
// set, in Request.Clients order.
func (r Request) forgottenClients() []*fl.Client {
	wanted := r.forgottenSet()
	out := make([]*fl.Client, 0, len(r.Forgotten))
	for _, c := range r.Clients {
		if wanted[c.ID] {
			out = append(out, c)
		}
	}
	return out
}

// Result is the common shape every strategy produces.
type Result struct {
	// Strategy is the registered name that produced this result.
	Strategy string
	// Params is the unlearned (and, where applicable, recovered)
	// global model.
	Params []float64
	// Unlearned is the model immediately after erasure, before any
	// recovery rounds (equal to Params for strategies without a
	// recovery phase; the backtracked w_F for the paper scheme).
	Unlearned []float64
	// BacktrackRound is F for history-backtracking strategies, −1 when
	// the strategy does not backtrack.
	BacktrackRound int
	// RecoveredRounds counts the FL-equivalent rounds the strategy ran
	// to produce Params (replayed, retrained or fine-tuned).
	RecoveredRounds int
	// Forgotten lists the erased client IDs (sorted).
	Forgotten []history.ClientID
	// StorageBytes is the per-round gradient state the strategy read
	// from the server's history tiers (0 for storage-free strategies).
	StorageBytes int64
	// ClientWork counts client-side gradient computations the strategy
	// demanded during unlearning — the overhead the paper's
	// server-side scheme eliminates.
	ClientWork int
	// Paper carries the paper scheme's detailed result (fallbacks,
	// refreshes, bootstraps) when the strategy wraps it; nil
	// otherwise.
	Paper *unlearn.Result
}

// Strategy is one unlearning algorithm, selectable by name.
type Strategy interface {
	// Name is the registry key (lower-case, stable across releases).
	Name() string
	// Needs declares the Request inputs the algorithm requires.
	Needs() Needs
	// Unlearn erases req.Forgotten and returns the unlearned model.
	// Implementations validate the request, honour ctx cancellation at
	// round boundaries, and leave the request's stores and clients
	// unmodified.
	Unlearn(ctx context.Context, req Request) (*Result, error)
}

// ErrUnknownStrategy reports a Lookup or Unlearn against a name no
// strategy registered under.
var ErrUnknownStrategy = errors.New("strategy: unknown strategy")

// ErrMissingInput reports a request that lacks an input the selected
// strategy declared in Needs (e.g. FedEraser without a full-gradient
// history).
var ErrMissingInput = errors.New("strategy: missing required input")

// strategies is the registry: every strategy in the package, sorted
// by name.
var strategies = [...]Strategy{
	FedEraser{},
	FedRecover{},
	FedRecovery{},
	NoT{},
	Paper{},
	PGA{},
	Retrain{},
}

// Lookup returns the strategy registered under name, or
// ErrUnknownStrategy listing the known names.
func Lookup(name string) (Strategy, error) {
	for _, s := range strategies {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w: %q (registered: %s)", ErrUnknownStrategy, name, strings.Join(Names(), ", "))
}

// Names lists every registered strategy name, sorted.
func Names() []string {
	out := make([]string, len(strategies))
	for i, s := range strategies {
		out[i] = s.Name()
	}
	return out
}

// Unlearn looks up name, validates req against the strategy's needs
// and runs it. This is the single entry point the facade and the cmd
// binaries dispatch through.
func Unlearn(ctx context.Context, name string, req Request) (*Result, error) {
	s, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if err := req.Validate(s.Needs()); err != nil {
		return nil, fmt.Errorf("strategy %q: %w", name, err)
	}
	res, err := s.Unlearn(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("strategy %q: %w", name, err)
	}
	res.Strategy = s.Name()
	return res, nil
}

// sortedForgotten returns a sorted copy of the forgotten IDs, the
// shape every Result reports.
func sortedForgotten(ids []history.ClientID) []history.ClientID {
	out := append([]history.ClientID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
