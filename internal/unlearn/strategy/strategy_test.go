package strategy

import (
	"context"
	"errors"
	"math"
	"testing"

	"fuiov/internal/dataset"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
	"fuiov/internal/telemetry"
	"fuiov/internal/unlearn"
)

// builtins is the strategy set this PR ships; registry tests assert it
// as a subset so test-local registrations don't break them.
var builtins = []string{"paper", "retrain", "fedrecover", "fedrecovery", "federaser", "pga", "not"}

const (
	fixSeed    = 0x5eed
	fixRounds  = 12
	fixClients = 5
	fixJoin    = 2
	fixLR      = 0.05
)

// fixture trains a miniature federation with both history tiers
// recording, mirroring experiments.NewDeployment at toy scale, and
// returns a fully populated Request forgetting the late joiner.
func fixture(t *testing.T) Request {
	t.Helper()
	full := dataset.SynthDigits(dataset.DefaultDigits(200, fixSeed))
	r := rng.New(fixSeed)
	train, _ := full.Split(r, 0.85)
	shards, err := dataset.PartitionIID(train, r, fixClients)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*fl.Client, fixClients)
	sched := fl.IntervalSchedule{}
	for i := range clients {
		clients[i] = &fl.Client{ID: history.ClientID(i), Data: shards[i]}
		join := 0
		if i == 1 {
			join = fixJoin
		}
		sched[history.ClientID(i)] = fl.Interval{Join: join, Leave: -1}
	}
	tmpl := nn.NewMLP(full.Dims.Size(), 8, full.Classes)
	tmpl.Init(r.Split(13))
	store, err := history.NewStore(tmpl.NumParams(), 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	fh, err := NewFullHistory(tmpl.NumParams())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := fl.NewSimulation(tmpl, clients, fl.Config{
		LearningRate: fixLR,
		Seed:         fixSeed,
		Schedule:     sched,
		Store:        store,
		Recorders:    []fl.Recorder{fh},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), fixRounds); err != nil {
		t.Fatal(err)
	}
	return Request{
		Forgotten:    []history.ClientID{1},
		Store:        store,
		Full:         fh,
		Template:     tmpl,
		Clients:      clients,
		FinalParams:  sim.Params(),
		LearningRate: fixLR,
		Rounds:       fixRounds,
		Seed:         fixSeed,
		Unlearn: unlearn.Config{
			PairSize:      2,
			ClipThreshold: 0.05,
			RefreshEvery:  21,
		},
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	names := Names()
	for _, want := range builtins {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("builtin %q not registered (have %v)", want, names)
		}
	}
	s, err := Lookup("paper")
	if err != nil || s.Name() != "paper" {
		t.Fatalf("Lookup(paper) = %v, %v", s, err)
	}
	if _, err := Lookup("nope"); !errors.Is(err, ErrUnknownStrategy) {
		t.Fatalf("Lookup(nope) err = %v, want ErrUnknownStrategy", err)
	}
	// The table itself: one entry per name, in name order, each found
	// by Lookup under its own Name().
	if len(names) != len(strategies) {
		t.Fatalf("Names() lists %d strategies, the table holds %d", len(names), len(strategies))
	}
	for i, n := range names {
		if i > 0 && names[i-1] >= n {
			t.Errorf("names %q, %q are duplicated or out of order", names[i-1], n)
		}
		if s, err := Lookup(n); err != nil || s.Name() != n {
			t.Errorf("Lookup(%q) = %v, %v; want the strategy named %q", n, s, err, n)
		}
	}
}

func TestValidateNeeds(t *testing.T) {
	req := fixture(t)
	req.Full = nil
	if _, err := Unlearn(context.Background(), "federaser", req); !errors.Is(err, ErrMissingInput) {
		t.Errorf("federaser without full history err = %v, want ErrMissingInput", err)
	}
	req = fixture(t)
	req.Store = nil
	if _, err := Unlearn(context.Background(), "paper", req); !errors.Is(err, ErrMissingInput) {
		t.Errorf("paper without direction store err = %v, want ErrMissingInput", err)
	}
	req = fixture(t)
	req.Forgotten = nil
	if _, err := Unlearn(context.Background(), "not", req); !errors.Is(err, ErrMissingInput) {
		t.Errorf("empty forgotten set err = %v, want ErrMissingInput", err)
	}
}

// TestLearningRateRejected: every builtin refuses a request whose one
// learning rate is not a finite positive number — NaN and +Inf
// included, and a rate set only on the paper config — before it does
// any work, instead of returning the un-unlearned model (NaN) or an
// infinite one (+Inf).
func TestLearningRateRejected(t *testing.T) {
	base := fixture(t)
	cases := []struct {
		name          string
		lr, unlearnLR float64
	}{
		{"zero", 0, 0},
		{"negative", -0.1, 0},
		{"NaN", math.NaN(), 0},
		{"+Inf", math.Inf(1), 0},
		{"paper config only", 0, 0.1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, name := range builtins {
				req := base
				req.LearningRate = tc.lr
				req.Unlearn.LearningRate = tc.unlearnLR
				if _, err := Unlearn(context.Background(), name, req); !errors.Is(err, ErrMissingInput) {
					t.Errorf("%s: err = %v, want ErrMissingInput", name, err)
				}
			}
		})
	}
}

// TestStrategyDeterminism runs every builtin twice on one fixture and
// demands bit-equal results — the repo-wide reproducibility invariant
// extended to the strategy layer.
func TestStrategyDeterminism(t *testing.T) {
	req := fixture(t)
	for _, name := range builtins {
		a, err := Unlearn(context.Background(), name, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Unlearn(context.Background(), name, req)
		if err != nil {
			t.Fatalf("%s (rerun): %v", name, err)
		}
		if len(a.Params) != len(b.Params) {
			t.Fatalf("%s: dim %d vs %d", name, len(a.Params), len(b.Params))
		}
		for i := range a.Params {
			if math.Float64bits(a.Params[i]) != math.Float64bits(b.Params[i]) {
				t.Errorf("%s: param %d differs across reruns: %v vs %v", name, i, a.Params[i], b.Params[i])
				break
			}
		}
		if a.Strategy != name {
			t.Errorf("%s: result labelled %q", name, a.Strategy)
		}
		for i := 1; i < len(a.Forgotten); i++ {
			if a.Forgotten[i-1] > a.Forgotten[i] {
				t.Errorf("%s: forgotten IDs not sorted: %v", name, a.Forgotten)
			}
		}
	}
}

// TestPaperBitIdentity proves the strategy layer is a zero-cost
// wrapper: the "paper" strategy's output is bit-identical to driving
// unlearn.Unlearner directly with the same configuration.
func TestPaperBitIdentity(t *testing.T) {
	req := fixture(t)
	cfg := req.Unlearn
	cfg.LearningRate = req.LearningRate
	u, err := unlearn.New(req.Store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := u.UnlearnContext(context.Background(), req.Forgotten...)
	if err != nil {
		t.Fatal(err)
	}
	viaStrategy, err := Unlearn(context.Background(), "paper", req)
	if err != nil {
		t.Fatal(err)
	}
	if viaStrategy.BacktrackRound != direct.BacktrackRound {
		t.Errorf("backtrack %d vs %d", viaStrategy.BacktrackRound, direct.BacktrackRound)
	}
	if viaStrategy.RecoveredRounds != direct.RecoveredRounds {
		t.Errorf("recovered %d vs %d", viaStrategy.RecoveredRounds, direct.RecoveredRounds)
	}
	for i := range direct.Params {
		if math.Float64bits(direct.Params[i]) != math.Float64bits(viaStrategy.Params[i]) {
			t.Fatalf("param %d differs: direct %v, strategy %v", i, direct.Params[i], viaStrategy.Params[i])
		}
	}
	for i := range direct.Unlearned {
		if math.Float64bits(direct.Unlearned[i]) != math.Float64bits(viaStrategy.Unlearned[i]) {
			t.Fatalf("unlearned param %d differs", i)
		}
	}
	if viaStrategy.Paper == nil {
		t.Error("paper strategy did not carry the detailed unlearn.Result")
	}
}

// TestNoTFlipsSign checks the cheap-correctness property of NoT: the
// erased (pre-fine-tune) model is the trained model with exactly the
// weight matrices negated — every weight-span entry sign-flipped,
// every bias untouched.
func TestNoTFlipsSign(t *testing.T) {
	req := fixture(t)
	res, err := Unlearn(context.Background(), "not", req)
	if err != nil {
		t.Fatal(err)
	}
	spans := req.Template.WeightSpans()
	if len(spans) == 0 {
		t.Fatal("no parameterised layers")
	}
	inWeights := func(i int) bool {
		for _, sp := range spans {
			if i >= sp[0] && i < sp[1] {
				return true
			}
		}
		return false
	}
	sum := 0.0
	for i, w := range req.FinalParams {
		want := w
		if inWeights(i) {
			want = -w
			sum += math.Abs(w)
		}
		if math.Float64bits(res.Unlearned[i]) != math.Float64bits(want) {
			t.Fatalf("param %d: unlearned %v, want %v", i, res.Unlearned[i], want)
		}
	}
	if sum == 0 {
		t.Fatal("weights trained to all zeros; sign flip unobservable")
	}
	// Biases exist in the MLP and must be untouched — the spans must
	// not cover the whole vector.
	covered := 0
	for _, sp := range spans {
		covered += sp[1] - sp[0]
	}
	if covered >= req.Template.NumParams() {
		t.Fatalf("weight spans cover all %d params; biases not excluded", covered)
	}
}

// TestStrategyTelemetryNames runs every builtin under one registry and
// asserts each strategy timed its run under
// "unlearn.strategy." + name + ".total" — the namespace contract
// names_test.go pins from the telemetry side.
func TestStrategyTelemetryNames(t *testing.T) {
	req := fixture(t)
	reg := telemetry.New()
	req.Telemetry = reg
	for _, name := range builtins {
		if _, err := Unlearn(context.Background(), name, req); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	snap := reg.Snapshot()
	timed := make(map[string]int64, len(snap.Timers))
	for _, tm := range snap.Timers {
		timed[tm.Name] = tm.Count
	}
	for _, name := range builtins {
		want := "unlearn.strategy." + name + ".total"
		if timed[want] == 0 {
			t.Errorf("strategy %q did not observe timer %q (timers: %v)", name, want, timed)
		}
	}
}
