// Package verify measures *forgetting* — the property the rest of the
// repo only proxies through bit-identity to the retrained weights w_F.
// It scores an unlearned model three ways (DESIGN.md §17):
//
//   - shadow-model membership inference: K seeded shadow models are
//     trained on in/out splits of a clean pool, a logistic attack is
//     fitted on per-sample loss+confidence features, and the attack's
//     advantage over random guessing on the forgotten client's data is
//     reported before and after unlearning;
//   - backdoor retention: attack.Backdoor.SuccessRate on the
//     pre-unlearn, post-unlearn and post-relearn models, when the
//     deployment carries a trigger;
//   - relearn-time-to-recover: rounds of continued federated training
//     (forgotten clients re-included) until the forgotten data is
//     re-memorized past a threshold.
//
// Everything is seeded through internal/rng, so a Suite produces
// bit-identical scores across reruns — the suite doubles as a
// regression test (retraining must score ≈ chance; the paper scheme
// must land within a pinned epsilon of retraining).
package verify

import (
	"context"
	"fmt"

	"fuiov/internal/attack"
	"fuiov/internal/dataset"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/metrics"
	"fuiov/internal/nn"
	"fuiov/internal/telemetry"
)

// Default knobs, chosen so the CI-scale suite runs in well under a
// second while keeping the attack's shadow population non-trivial.
const (
	// DefaultShadows is the number of shadow models K.
	DefaultShadows = 6
	// DefaultShadowSteps is the SGD steps per shadow model.
	DefaultShadowSteps = 80
	// DefaultRelearnCap bounds the relearn-time probe.
	DefaultRelearnCap = 40
)

// Fixed knobs of the suite.
const (
	// shadowBatch is the shadow-training mini-batch size.
	shadowBatch = 32
	// shadowLR is the shadow-training step size.
	shadowLR = 0.2
	// relearnFraction defines "re-memorized": forgotten-data accuracy
	// back above this fraction of the pre-unlearn level.
	relearnFraction = 0.9
)

// Config tunes the verification suite. The zero value selects the
// defaults above.
type Config struct {
	// Shadows is the number of shadow models K (0 = DefaultShadows).
	Shadows int
	// ShadowSteps is the SGD steps each shadow trains for
	// (0 = DefaultShadowSteps).
	ShadowSteps int
	// RelearnCap bounds the relearn probe's rounds (0 = DefaultRelearnCap).
	RelearnCap int
	// SkipRelearn disables the relearn probe (and the post-relearn
	// backdoor measurement); Score.RelearnRounds is reported as −1.
	SkipRelearn bool
	// Telemetry, when non-nil, receives the verify.* timers and
	// counters (telemetry names.go). Nil disables instrumentation.
	Telemetry *telemetry.Registry
}

// withDefaults resolves zero fields to the package defaults.
func (c Config) withDefaults() Config {
	if c.Shadows <= 0 {
		c.Shadows = DefaultShadows
	}
	if c.ShadowSteps <= 0 {
		c.ShadowSteps = DefaultShadowSteps
	}
	if c.RelearnCap <= 0 {
		c.RelearnCap = DefaultRelearnCap
	}
	return c
}

// Target describes the model under verification: the trained
// federation an unlearning strategy ran against.
type Target struct {
	// Template is the model architecture. Required.
	Template *nn.Network
	// Clients is the full federation, forgotten clients included.
	// Required: the forgotten shards are the attack's member set, and
	// the relearn probe re-admits the forgotten clients.
	Clients []*fl.Client
	// Forgotten lists the erased clients; their shards are the
	// attack's member set. Required.
	Forgotten []history.ClientID
	// Test is the clean held-out set: the attack's non-member
	// population and the standardization reference. Required.
	Test *dataset.Dataset
	// ShadowPool is the data shadow models train on (nil = Test).
	ShadowPool *dataset.Dataset
	// Before is the pre-unlearn global model w_T. Required.
	Before []float64
	// LearningRate is η for the relearn probe's federated rounds.
	LearningRate float64
	// Seed drives every random draw in the suite.
	Seed uint64
	// Backdoor, when non-nil, enables the backdoor-retention scores.
	Backdoor *attack.Backdoor
}

// validate rejects unusable targets.
func (t Target) validate(cfg Config) error {
	if t.Template == nil {
		return fmt.Errorf("verify: nil template")
	}
	if len(t.Forgotten) == 0 {
		return fmt.Errorf("verify: no forgotten clients")
	}
	if t.Test == nil || t.Test.Len() < 4 {
		return fmt.Errorf("verify: test set too small")
	}
	if len(t.Before) != t.Template.NumParams() {
		return fmt.Errorf("verify: before-model has %d params, template %d",
			len(t.Before), t.Template.NumParams())
	}
	if len(t.Clients) == 0 {
		return fmt.Errorf("verify: no clients (the forgotten shards are the attack's member set)")
	}
	if !cfg.SkipRelearn && t.LearningRate <= 0 {
		return fmt.Errorf("verify: relearn probe needs a learning rate, got %v", t.LearningRate)
	}
	return nil
}

// Score is one strategy's forgetting scorecard.
type Score struct {
	// MIAAdvantageBefore is the membership attacker's advantage over
	// random guessing against the pre-unlearn model:
	// max(0, balanced accuracy − 0.5). Below-chance accuracy means the
	// attacker finds no membership signal and is reported as 0.
	MIAAdvantageBefore float64 `json:"mia_advantage_before"`
	// MIAAdvantageAfter is the same attacker against the unlearned
	// model; ≈ 0 means the forgotten data is no longer distinguishable
	// as training data.
	MIAAdvantageAfter float64 `json:"mia_advantage_after"`
	// BackdoorBefore/After/Relearn are attack success rates of the
	// deployment's trigger on the pre-unlearn, post-unlearn and
	// post-relearn models; nil when the deployment has no backdoor
	// (or, for Relearn, when the relearn probe is skipped).
	BackdoorBefore  *float64 `json:"backdoor_before,omitempty"`
	BackdoorAfter   *float64 `json:"backdoor_after,omitempty"`
	BackdoorRelearn *float64 `json:"backdoor_relearn,omitempty"`
	// RelearnRounds is how many federated rounds (forgotten clients
	// re-included) it took to push forgotten-data accuracy back above
	// RelearnThreshold; 0 means the unlearned model never dropped
	// below it, −1 means not recovered within the cap (or probe
	// skipped).
	RelearnRounds int `json:"relearn_rounds"`
	// RelearnThreshold is the absolute forgotten-data accuracy that
	// counts as re-memorized.
	RelearnThreshold float64 `json:"relearn_threshold"`
}

// suiteMetrics caches telemetry handles (nil/no-op when disabled).
type suiteMetrics struct {
	suite       *telemetry.Timer
	shadowTrain *telemetry.Timer
	shadows     *telemetry.Counter
	fit         *telemetry.Timer
	evals       *telemetry.Counter
	relearn     *telemetry.Counter
	scores      *telemetry.Counter
	scoreTime   *telemetry.Timer
}

func newSuiteMetrics(r *telemetry.Registry) suiteMetrics {
	if r == nil {
		return suiteMetrics{}
	}
	return suiteMetrics{
		suite:       r.Timer(telemetry.VerifySuite),
		shadowTrain: r.Timer(telemetry.VerifyShadowTrain),
		shadows:     r.Counter(telemetry.VerifyShadowModels),
		fit:         r.Timer(telemetry.VerifyAttackFit),
		evals:       r.Counter(telemetry.VerifyMIAEvals),
		relearn:     r.Counter(telemetry.VerifyRelearnRounds),
		scores:      r.Counter(telemetry.VerifyScores),
		scoreTime:   r.Timer(telemetry.VerifyScoreTime),
	}
}

// Suite is the reusable half of the verification: shadow models, the
// fitted attack and the pre-unlearn measurements are computed once in
// NewSuite and shared across every Score call, so comparing seven
// strategies costs seven cheap evaluations, not seven shadow fits.
// A Suite is not safe for concurrent Score calls.
type Suite struct {
	cfg Config
	tgt Target

	att       logistic
	forgotten *dataset.Dataset
	eval      *nn.Network

	beforeAcc float64 // pre-unlearn accuracy on the forgotten data
	threshold float64 // absolute relearn-recovery accuracy

	miaBefore float64
	bdBefore  *float64

	met suiteMetrics
}

// NewSuite trains the shadow models, fits the membership attack and
// scores the pre-unlearn model. The context cancels shadow training.
func NewSuite(ctx context.Context, tgt Target, cfg Config) (*Suite, error) {
	cfg = cfg.withDefaults()
	if err := tgt.validate(cfg); err != nil {
		return nil, err
	}
	s := &Suite{cfg: cfg, tgt: tgt, met: newSuiteMetrics(cfg.Telemetry)}
	span := s.met.suite.Start()
	defer span.End()

	s.forgotten = forgottenData(tgt.Clients, tgt.Forgotten)
	if s.forgotten.Len() == 0 {
		return nil, fmt.Errorf("verify: forgotten clients hold no data")
	}
	s.eval = tgt.Template.Clone()

	att, err := s.fitAttack(ctx)
	if err != nil {
		return nil, err
	}
	s.att = att

	s.eval.SetParamVector(tgt.Before)
	s.miaBefore = s.advantage(s.eval)
	s.beforeAcc = metrics.Accuracy(s.eval, s.forgotten)
	s.threshold = relearnFraction * s.beforeAcc
	if tgt.Backdoor != nil {
		v := tgt.Backdoor.SuccessRate(s.eval, tgt.Test)
		s.bdBefore = &v
	}
	return s, nil
}

// Score measures one unlearned model against the suite's fitted
// attack: MIA advantage, backdoor retention and relearn time. The
// context cancels the relearn probe's federated rounds.
func (s *Suite) Score(ctx context.Context, after []float64) (Score, error) {
	if len(after) != s.tgt.Template.NumParams() {
		return Score{}, fmt.Errorf("verify: unlearned model has %d params, template %d",
			len(after), s.tgt.Template.NumParams())
	}
	span := s.met.scoreTime.Start()
	defer span.End()

	sc := Score{
		MIAAdvantageBefore: s.miaBefore,
		RelearnThreshold:   s.threshold,
		RelearnRounds:      -1,
	}
	if s.bdBefore != nil {
		v := *s.bdBefore
		sc.BackdoorBefore = &v
	}
	s.eval.SetParamVector(after)
	sc.MIAAdvantageAfter = s.advantage(s.eval)
	if s.tgt.Backdoor != nil {
		v := s.tgt.Backdoor.SuccessRate(s.eval, s.tgt.Test)
		sc.BackdoorAfter = &v
	}
	if !s.cfg.SkipRelearn {
		rounds, relearned, err := s.relearn(ctx, after)
		if err != nil {
			return Score{}, err
		}
		sc.RelearnRounds = rounds
		if s.tgt.Backdoor != nil {
			s.eval.SetParamVector(relearned)
			v := s.tgt.Backdoor.SuccessRate(s.eval, s.tgt.Test)
			sc.BackdoorRelearn = &v
		}
	}
	s.met.scores.Inc()
	return sc, nil
}

// forgottenData concatenates the forgotten clients' shards — the
// attack's member population. Feature slices are shared, not copied.
func forgottenData(clients []*fl.Client, forgotten []history.ClientID) *dataset.Dataset {
	want := make(map[history.ClientID]bool, len(forgotten))
	for _, id := range forgotten {
		want[id] = true
	}
	out := &dataset.Dataset{}
	for _, c := range clients {
		if c == nil || !want[c.ID] || c.Data == nil {
			continue
		}
		if out.Dims.Size() == 0 {
			out.Dims = c.Data.Dims
			out.Classes = c.Data.Classes
		}
		out.X = append(out.X, c.Data.X...)
		out.Y = append(out.Y, c.Data.Y...)
	}
	return out
}
