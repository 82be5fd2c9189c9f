package strategy

import (
	"context"
	"fmt"

	"fuiov/internal/telemetry"
	"fuiov/internal/tensor"
)

// NoT is weight-negation unlearning (arXiv 2503.05657) behind the
// Strategy interface: negate the model's weight matrices — the negated
// model is far from anything the forgotten data shaped, yet remains a
// strong fine-tuning initialisation because negating every layer
// preserves the layers' learned co-adaptation up to sign — then repair
// utility with a short fine-tune on the remaining clients. Biases are
// left intact: under ReLU a negated bias leaves most units inactive on
// every input, with zero gradient and therefore no path back. The
// cheapest strategy here by a wide margin: no history tier, no
// per-round replay, one vector negation plus recovery rounds.
type NoT struct {
	// Layers is how many leading parameterised layers to negate;
	// 0 negates every layer (the default — on shallow models partial
	// negation destroys co-adaptation instead of preserving it and
	// recovery stalls).
	Layers int
	// FineTuneRounds repairs utility after negation (0 = a quarter of
	// the original horizon; negation erases more aggressively than
	// PGA's bounded ascent, so it earns a larger repair budget).
	FineTuneRounds int
}

// Name returns "not".
func (NoT) Name() string { return "not" }

// Needs declares the trained model, the architecture (for weight
// spans) and live clients for the repair fine-tune.
func (NoT) Needs() Needs { return NeedsFinalParams | NeedsTemplate | NeedsClients }

// Unlearn negates, then fine-tunes.
func (n NoT) Unlearn(ctx context.Context, req Request) (*Result, error) {
	span := req.Telemetry.Timer(telemetry.NoTTotal).Start()
	defer span.End()

	if len(req.FinalParams) != req.Template.NumParams() {
		return nil, fmt.Errorf("not: model dimension %d, template wants %d", len(req.FinalParams), req.Template.NumParams())
	}
	spans := req.Template.WeightSpans()
	if len(spans) == 0 {
		return nil, fmt.Errorf("not: template has no parameterised layers")
	}
	layers := n.Layers
	if layers <= 0 || layers > len(spans) {
		layers = len(spans)
	}
	w := tensor.CloneVec(req.FinalParams)
	for _, sp := range spans[:layers] {
		for i := sp[0]; i < sp[1]; i++ {
			w[i] = -w[i]
		}
	}
	unlearned := tensor.CloneVec(w)

	rounds := n.FineTuneRounds
	if rounds <= 0 {
		rounds = req.rounds() / 4
		if rounds < 1 {
			rounds = 1
		}
	}
	repaired, err := fineTune(ctx, req, w, rounds, 0x107)
	if err != nil {
		return nil, err
	}
	return &Result{
		Params:          repaired,
		Unlearned:       unlearned,
		BacktrackRound:  -1,
		RecoveredRounds: rounds,
		Forgotten:       sortedForgotten(req.Forgotten),
		ClientWork:      rounds * len(req.remaining()),
	}, nil
}
