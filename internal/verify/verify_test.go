package verify

import (
	"context"
	"math"
	"reflect"
	"testing"

	"fuiov/internal/attack"
	"fuiov/internal/dataset"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
	"fuiov/internal/telemetry"
)

// testFederation is a miniature trained federation: a handful of
// clients (the first poisoned with the default backdoor), a trained
// global model and a clean test set.
type testFederation struct {
	template  *nn.Network
	clients   []*fl.Client
	forgotten []history.ClientID
	test      *dataset.Dataset
	before    []float64
	backdoor  *attack.Backdoor
}

// newTestFederation trains a small backdoored federation. rounds keeps
// the test's runtime proportional to what it asserts.
func newTestFederation(t *testing.T, seed uint64, rounds int) *testFederation {
	t.Helper()
	const nClients = 6
	full := dataset.SynthDigits(dataset.DefaultDigits(600, seed))
	r := rng.New(seed)
	train, test := full.Split(r, 0.8)
	shards, err := dataset.PartitionIID(train, r, nClients)
	if err != nil {
		t.Fatal(err)
	}
	bd := attack.DefaultBackdoor()
	clients := make([]*fl.Client, nClients)
	for i := range clients {
		shard := shards[i]
		if i == 0 {
			shard = bd.Poison(shard, r.Split(7, uint64(i)))
		}
		clients[i] = &fl.Client{ID: history.ClientID(i), Data: shard}
	}
	template := nn.NewMLP(full.Dims.Size(), 16, full.Classes)
	template.Init(r.Split(13))
	sim, err := fl.NewSimulation(template, clients, fl.Config{LearningRate: 0.05, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), rounds); err != nil {
		t.Fatal(err)
	}
	return &testFederation{
		template:  template,
		clients:   clients,
		forgotten: []history.ClientID{0},
		test:      test,
		before:    sim.Params(),
		backdoor:  bd,
	}
}

func (f *testFederation) target() Target {
	return Target{
		Template:     f.template,
		Clients:      f.clients,
		Forgotten:    f.forgotten,
		Test:         f.test,
		Before:       f.before,
		LearningRate: 0.05,
		Seed:         91,
		Backdoor:     f.backdoor,
	}
}

// fastConfig keeps suite runtime low without disabling any code path.
func fastConfig() Config {
	return Config{Shadows: 3, ShadowSteps: 40, RelearnCap: 6}
}

// TestSuiteDeterministic is the bit-determinism contract: two
// independently constructed suites over the same seeded target produce
// exactly equal scores, including the relearn probe.
func TestSuiteDeterministic(t *testing.T) {
	fed := newTestFederation(t, 5, 60)
	ctx := context.Background()
	// A model that plainly forgot: fresh init, never trained.
	blank := fed.template.Clone()
	blank.Init(rng.New(99))
	after := blank.ParamVector()

	var scores [2]Score
	for i := range scores {
		s, err := NewSuite(ctx, fed.target(), fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		sc, err := s.Score(ctx, after)
		if err != nil {
			t.Fatal(err)
		}
		scores[i] = sc
	}
	if !reflect.DeepEqual(derefScore(scores[0]), derefScore(scores[1])) {
		t.Fatalf("suite not deterministic:\n%+v\nvs\n%+v", scores[0], scores[1])
	}
}

// derefScore flattens pointer fields so reflect.DeepEqual compares
// values, not addresses.
func derefScore(s Score) [8]float64 {
	f := func(p *float64) float64 {
		if p == nil {
			return math.Inf(-1)
		}
		return *p
	}
	return [8]float64{
		s.MIAAdvantageBefore, s.MIAAdvantageAfter,
		f(s.BackdoorBefore), f(s.BackdoorAfter), f(s.BackdoorRelearn),
		float64(s.RelearnRounds), s.RelearnThreshold, 0,
	}
}

// TestScoreSignals checks the three signals point the right way on an
// unambiguous pair of models: the pre-unlearn model itself (nothing
// forgotten) vs a freshly initialised one (everything forgotten).
func TestScoreSignals(t *testing.T) {
	fed := newTestFederation(t, 11, 80)
	ctx := context.Background()
	s, err := NewSuite(ctx, fed.target(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Scoring the before-model: no forgetting anywhere.
	same, err := s.Score(ctx, fed.before)
	if err != nil {
		t.Fatal(err)
	}
	if same.MIAAdvantageAfter != same.MIAAdvantageBefore {
		t.Errorf("before-model scored differently before (%v) vs after (%v)",
			same.MIAAdvantageBefore, same.MIAAdvantageAfter)
	}
	if same.RelearnRounds != 0 {
		t.Errorf("before-model relearn rounds = %d, want 0 (never dropped below threshold)", same.RelearnRounds)
	}
	if same.BackdoorBefore == nil || same.BackdoorAfter == nil {
		t.Fatal("backdoor scores missing despite Backdoor target")
	}
	if *same.BackdoorAfter != *same.BackdoorBefore {
		t.Errorf("before-model backdoor rate changed: %v vs %v", *same.BackdoorBefore, *same.BackdoorAfter)
	}

	// Scoring a blank model: forgotten by construction.
	blank := fed.template.Clone()
	blank.Init(rng.New(99))
	gone, err := s.Score(ctx, blank.ParamVector())
	if err != nil {
		t.Fatal(err)
	}
	if gone.MIAAdvantageAfter > 0.05 {
		t.Errorf("blank model still shows MIA advantage %v", gone.MIAAdvantageAfter)
	}
	if *gone.BackdoorAfter >= *same.BackdoorBefore {
		t.Errorf("blank model retains backdoor: %v vs before %v", *gone.BackdoorAfter, *same.BackdoorBefore)
	}
	if gone.RelearnRounds == 0 {
		t.Error("blank model reported as never below the relearn threshold")
	}
}

// TestSkipRelearn pins the degraded mode: no relearn probe, no
// post-relearn backdoor score, RelearnRounds = −1.
func TestSkipRelearn(t *testing.T) {
	fed := newTestFederation(t, 5, 40)
	ctx := context.Background()
	cfg := fastConfig()
	cfg.SkipRelearn = true
	// No learning rate needed when the probe is off.
	tgt := fed.target()
	tgt.LearningRate = 0
	s, err := NewSuite(ctx, tgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Score(ctx, fed.before)
	if err != nil {
		t.Fatal(err)
	}
	if sc.RelearnRounds != -1 {
		t.Errorf("RelearnRounds = %d, want -1 with SkipRelearn", sc.RelearnRounds)
	}
	if sc.BackdoorRelearn != nil {
		t.Errorf("BackdoorRelearn = %v, want nil with SkipRelearn", *sc.BackdoorRelearn)
	}
	if sc.BackdoorBefore == nil || sc.BackdoorAfter == nil {
		t.Error("static backdoor scores should survive SkipRelearn")
	}
}

// TestNoBackdoorTarget pins graceful omission: without a trigger the
// backdoor fields stay nil rather than zeroed.
func TestNoBackdoorTarget(t *testing.T) {
	fed := newTestFederation(t, 5, 40)
	tgt := fed.target()
	tgt.Backdoor = nil
	cfg := fastConfig()
	cfg.SkipRelearn = true
	tgt.LearningRate = 0
	s, err := NewSuite(context.Background(), tgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Score(context.Background(), fed.before)
	if err != nil {
		t.Fatal(err)
	}
	if sc.BackdoorBefore != nil || sc.BackdoorAfter != nil || sc.BackdoorRelearn != nil {
		t.Errorf("backdoor fields set without a trigger: %+v", sc)
	}
}

// TestTargetValidation sweeps the rejection paths.
func TestTargetValidation(t *testing.T) {
	fed := newTestFederation(t, 5, 10)
	ctx := context.Background()
	cases := []struct {
		name   string
		mutate func(*Target, *Config)
	}{
		{"nil template", func(tgt *Target, _ *Config) { tgt.Template = nil }},
		{"no forgotten", func(tgt *Target, _ *Config) { tgt.Forgotten = nil }},
		{"no clients", func(tgt *Target, _ *Config) { tgt.Clients = nil }},
		{"tiny test set", func(tgt *Target, _ *Config) { tgt.Test = tgt.Test.Subset([]int{0}) }},
		{"wrong before dim", func(tgt *Target, _ *Config) { tgt.Before = tgt.Before[:3] }},
		{"no relearn lr", func(tgt *Target, _ *Config) { tgt.LearningRate = 0 }},
		{"forgotten id unknown", func(tgt *Target, _ *Config) { tgt.Forgotten = []history.ClientID{99} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tgt, cfg := fed.target(), fastConfig()
			tc.mutate(&tgt, &cfg)
			if _, err := NewSuite(ctx, tgt, cfg); err == nil {
				t.Error("bad target accepted")
			}
		})
	}
}

// TestFitLogisticSeparates sanity-checks the attack fit on linearly
// separable features, and its graceful zero on no data.
func TestFitLogisticSeparates(t *testing.T) {
	if l := fitLogistic(nil); l != (logistic{}) {
		t.Errorf("empty fit = %+v, want zero", l)
	}
	// Members at low loss, non-members at high loss.
	var ex []attackExample
	for i := 0; i < 40; i++ {
		off := float64(i%5) * 0.1
		ex = append(ex, attackExample{zLoss: -1 - off, zConf: 1 + off, member: true})
		ex = append(ex, attackExample{zLoss: 1 + off, zConf: -1 - off, member: false})
	}
	l := fitLogistic(ex)
	for _, e := range ex {
		score := l.memberScore(e.zLoss, e.zConf)
		if e.member && score <= 0 {
			t.Fatalf("member misclassified: %+v score %v", e, score)
		}
		if !e.member && score > 0 {
			t.Fatalf("non-member misclassified: %+v score %v", e, score)
		}
	}
}

// TestSuiteTelemetry checks the verify.* instrumentation fires.
func TestSuiteTelemetry(t *testing.T) {
	fed := newTestFederation(t, 5, 40)
	reg := telemetry.New()
	cfg := fastConfig()
	cfg.Telemetry = reg
	ctx := context.Background()
	s, err := NewSuite(ctx, fed.target(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Score(ctx, fed.before); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(telemetry.VerifyShadowModels).Value(); got != int64(cfg.Shadows) {
		t.Errorf("%s = %d, want %d", telemetry.VerifyShadowModels, got, cfg.Shadows)
	}
	if got := reg.Counter(telemetry.VerifyScores).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", telemetry.VerifyScores, got)
	}
	// Before-model + one Score = at least two advantage evaluations.
	if got := reg.Counter(telemetry.VerifyMIAEvals).Value(); got < 2 {
		t.Errorf("%s = %d, want ≥ 2", telemetry.VerifyMIAEvals, got)
	}
}

// TestForgottenData checks the member-set assembly.
func TestForgottenData(t *testing.T) {
	fed := newTestFederation(t, 5, 10)
	got := forgottenData(fed.clients, fed.forgotten)
	if got.Len() != fed.clients[0].Data.Len() {
		t.Fatalf("member set %d samples, want client 0's %d", got.Len(), fed.clients[0].Data.Len())
	}
	both := forgottenData(fed.clients, []history.ClientID{0, 3})
	if want := fed.clients[0].Data.Len() + fed.clients[3].Data.Len(); both.Len() != want {
		t.Fatalf("two-client member set %d samples, want %d", both.Len(), want)
	}
	if empty := forgottenData(fed.clients, []history.ClientID{42}); empty.Len() != 0 {
		t.Fatalf("unknown client produced %d member samples", empty.Len())
	}
}
