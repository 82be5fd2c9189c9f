package unlearn

import (
	"context"
	"fmt"
	"math"
	"testing"

	"fuiov/internal/dataset"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/metrics"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
	"fuiov/internal/tensor"
)

// federation bundles a small trained FL deployment with history.
type federation struct {
	clients []*fl.Client
	test    *dataset.Dataset
	net     *nn.Network
	store   *history.Store
	sim     *fl.Simulation
	lr      float64
	seed    uint64
}

// trainFederation builds and trains a small federation with a history
// store. Client 1 joins at joinRound (others at 0).
func trainFederation(t *testing.T, nClients, rounds, joinRound int, seed uint64) *federation {
	t.Helper()
	d := dataset.SynthDigits(dataset.DefaultDigits(700, seed))
	r := rng.New(seed)
	train, test := d.Split(r, 0.85)
	shards, err := dataset.PartitionIID(train, r, nClients)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*fl.Client, nClients)
	for i := range clients {
		clients[i] = &fl.Client{ID: history.ClientID(i), Data: shards[i]}
	}
	net := nn.NewMLP(d.Dims.Size(), 20, d.Classes)
	net.Init(r.Split(77))
	store, err := history.NewStore(net.NumParams(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	sched := fl.IntervalSchedule{}
	for i := range clients {
		join := 0
		if i == 1 {
			join = joinRound
		}
		sched[history.ClientID(i)] = fl.Interval{Join: join, Leave: -1}
	}
	const lr = 0.05
	sim, err := fl.NewSimulation(net, clients, fl.Config{
		LearningRate: lr, Seed: seed, Store: store, Schedule: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), rounds); err != nil {
		t.Fatal(err)
	}
	return &federation{clients: clients, test: test, net: net,
		store: store, sim: sim, lr: lr, seed: seed}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{LearningRate: 0.1}); err == nil {
		t.Error("nil store should error")
	}
	store, _ := history.NewStore(4, 0)
	if _, err := New(store, Config{}); err == nil {
		t.Error("missing learning rate should error")
	}
	if _, err := New(store, Config{LearningRate: 0.1, PairSize: -1}); err == nil {
		t.Error("negative pair size should error")
	}
	if _, err := New(store, Config{LearningRate: 0.1, ClipThreshold: -1}); err == nil {
		t.Error("negative clip threshold should error")
	}
	if _, err := New(store, Config{LearningRate: 0.1, RefreshEvery: -2}); err == nil {
		t.Error("negative refresh should error")
	}
}

// TestNaNConfigRejected: a NaN option fails its range check instead of
// slipping past both ends of it, and so does an infinite learning
// rate.
func TestNaNConfigRejected(t *testing.T) {
	store, _ := history.NewStore(4, 0)
	nan := math.NaN()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"learning rate", Config{LearningRate: nan}},
		{"learning rate +Inf", Config{LearningRate: math.Inf(1)}},
		{"clip threshold", Config{LearningRate: 0.1, ClipThreshold: nan}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(store, tc.cfg); err == nil {
				t.Error("New accepted it")
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	store, _ := history.NewStore(4, 0)
	u, err := New(store, Config{LearningRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := u.Config()
	if cfg.PairSize != 2 {
		t.Errorf("PairSize = %d, want 2 (paper default)", cfg.PairSize)
	}
	if cfg.ClipThreshold != 1 {
		t.Errorf("ClipThreshold = %v, want 1 (paper default)", cfg.ClipThreshold)
	}
	if cfg.RefreshEvery != 21 {
		t.Errorf("RefreshEvery = %d, want 21 (paper default)", cfg.RefreshEvery)
	}
	if cfg.ClipMode != ClipElementwise {
		t.Errorf("ClipMode = %v, want elementwise", cfg.ClipMode)
	}
}

func TestBacktrack(t *testing.T) {
	fed := trainFederation(t, 5, 12, 4, 1)
	u, err := New(fed.store, Config{LearningRate: fed.lr})
	if err != nil {
		t.Fatal(err)
	}
	w, f, err := u.Backtrack(1)
	if err != nil {
		t.Fatal(err)
	}
	if f != 4 {
		t.Fatalf("backtrack round = %d, want 4", f)
	}
	want, err := fed.store.Model(4)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(w, want, 0) {
		t.Error("backtracked model != stored w_F")
	}
	// Multiple clients: earliest join wins.
	_, f, err = u.Backtrack(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f != 0 {
		t.Errorf("multi-client backtrack = %d, want 0", f)
	}
	// Unknown client errors.
	if _, _, err := u.Backtrack(99); err == nil {
		t.Error("unknown client should error")
	}
	if _, _, err := u.Backtrack(); err == nil {
		t.Error("empty forget set should error")
	}
}

func TestUnlearnErasesClientAndRecovers(t *testing.T) {
	fed := trainFederation(t, 6, 40, 2, 2)
	u, err := New(fed.store, Config{LearningRate: fed.lr})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.BacktrackRound != 2 {
		t.Errorf("F = %d, want 2", res.BacktrackRound)
	}
	if res.RecoveredRounds != 38 {
		t.Errorf("recovered %d rounds, want 38", res.RecoveredRounds)
	}
	if len(res.Forgotten) != 1 || res.Forgotten[0] != 1 {
		t.Errorf("Forgotten = %v", res.Forgotten)
	}
	if len(res.Params) != fed.net.NumParams() {
		t.Fatalf("recovered params length %d", len(res.Params))
	}
	if !tensor.AllFinite(res.Params) {
		t.Fatal("recovered params contain NaN/Inf")
	}

	eval := fed.net.Clone()
	accFinal := metrics.AccuracyAt(eval, fed.sim.Params(), fed.test)
	accUnlearned := metrics.AccuracyAt(eval, res.Unlearned, fed.test)
	accRecovered := metrics.AccuracyAt(eval, res.Params, fed.test)
	t.Logf("final=%.3f unlearned=%.3f recovered=%.3f (fallbacks=%d, bootstrapped=%d)",
		accFinal, accUnlearned, accRecovered, res.DegenerateFallbacks, res.BootstrappedClients)

	// Unlearning must actually reset the model (round 2 of 40).
	dist, err := modelDistance(res.Unlearned, fed.sim.Params())
	if err != nil {
		t.Fatal(err)
	}
	if dist == 0 {
		t.Error("unlearned model identical to final model — nothing was erased")
	}
	// Recovery must improve substantially over the backtracked model.
	if accRecovered < accUnlearned+0.1 {
		t.Errorf("recovery did not help: unlearned %.3f -> recovered %.3f",
			accUnlearned, accRecovered)
	}
	// And land in a sane band relative to the fully trained model.
	if accRecovered < accFinal-0.35 {
		t.Errorf("recovered accuracy %.3f too far below final %.3f",
			accRecovered, accFinal)
	}
}

func TestUnlearnedModelUntouchedByForgottenClient(t *testing.T) {
	// The backtracked model must be bit-identical to the model of a
	// training run in which the forgotten client never participated up
	// to round F (it is the same prefix of training).
	fed := trainFederation(t, 5, 10, 5, 3)
	u, err := New(fed.store, Config{LearningRate: fed.lr})
	if err != nil {
		t.Fatal(err)
	}
	wBar, f, err := u.Backtrack(1)
	if err != nil {
		t.Fatal(err)
	}
	if f != 5 {
		t.Fatalf("F = %d, want 5", f)
	}
	// Re-run training without client 1 for F rounds; identical seeds
	// make the runs bit-comparable.
	d := dataset.SynthDigits(dataset.DefaultDigits(700, 3))
	r := rng.New(3)
	train, _ := d.Split(r, 0.85)
	shards, err := dataset.PartitionIID(train, r, 5)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*fl.Client, 5)
	for i := range clients {
		clients[i] = &fl.Client{ID: history.ClientID(i), Data: shards[i]}
	}
	net := nn.NewMLP(d.Dims.Size(), 20, d.Classes)
	net.Init(rng.New(3).Split(77))
	sched := fl.IntervalSchedule{}
	for i := range clients {
		if i == 1 {
			continue // never joins
		}
		sched[history.ClientID(i)] = fl.Interval{Join: 0, Leave: -1}
	}
	sim, err := fl.NewSimulation(net, clients, fl.Config{
		LearningRate: fed.lr, Seed: 3, Schedule: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if !equal(wBar, sim.Params(), 0) {
		t.Error("backtracked model differs from training-without-client prefix")
	}
}

func TestUnlearnMultipleClients(t *testing.T) {
	fed := trainFederation(t, 6, 25, 3, 4)
	u, err := New(fed.store, Config{LearningRate: fed.lr})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.UnlearnContext(context.Background(), 1, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.BacktrackRound != 0 {
		t.Errorf("F = %d, want 0 (clients 3 and 5 joined at 0)", res.BacktrackRound)
	}
	if len(res.Forgotten) != 3 {
		t.Errorf("Forgotten = %v", res.Forgotten)
	}
	if !tensor.AllFinite(res.Params) {
		t.Fatal("non-finite recovery")
	}
}

func TestBootstrapRequiresPreJoinHistory(t *testing.T) {
	// F=0 leaves no pre-join rounds: no client can be bootstrapped and
	// every client-round initially falls back to the raw direction.
	fed := trainFederation(t, 4, 10, 0, 5)
	u, err := New(fed.store, Config{LearningRate: fed.lr, RefreshEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.BootstrappedClients != 0 {
		t.Errorf("BootstrappedClients = %d, want 0 for F=0", res.BootstrappedClients)
	}
	if res.DegenerateFallbacks == 0 {
		t.Error("expected raw-direction fallbacks when no pairs exist")
	}

	// F=4 ≥ s: remaining clients have pre-join history and bootstrap.
	fed2 := trainFederation(t, 4, 12, 4, 6)
	u2, err := New(fed2.store, Config{LearningRate: fed2.lr})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := u2.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.BootstrappedClients != 3 {
		t.Errorf("BootstrappedClients = %d, want 3", res2.BootstrappedClients)
	}
}

func TestPairRefreshHappens(t *testing.T) {
	fed := trainFederation(t, 4, 30, 2, 8)
	u, err := New(fed.store, Config{LearningRate: fed.lr, RefreshEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.PairRefreshes == 0 {
		t.Error("expected at least one pair refresh with RefreshEvery=5 over 28 rounds")
	}
}

func TestRecoveryExcludesForgottenGradients(t *testing.T) {
	// After unlearning, re-running Unlearn for a second client must
	// not resurrect the first: deliberately forget both and check the
	// recovery ran from the earlier join round.
	fed := trainFederation(t, 5, 20, 6, 9)
	u, err := New(fed.store, Config{LearningRate: fed.lr})
	if err != nil {
		t.Fatal(err)
	}
	single, err := u.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	both, err := u.UnlearnContext(context.Background(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if both.BacktrackRound != 0 {
		t.Errorf("F = %d, want 0", both.BacktrackRound)
	}
	dist, err := modelDistance(single.Params, both.Params)
	if err != nil {
		t.Fatal(err)
	}
	if dist == 0 {
		t.Error("forgetting an extra client changed nothing")
	}
}

func TestDeterministicUnlearning(t *testing.T) {
	fed := trainFederation(t, 4, 18, 2, 10)
	u, err := New(fed.store, Config{LearningRate: fed.lr})
	if err != nil {
		t.Fatal(err)
	}
	a, err := u.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := u.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(a.Params, b.Params, 0) {
		t.Error("unlearning is not deterministic")
	}
}

// equal reports whether a and b have the same length and every pair of
// elements differs by at most tol.
func equal(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// modelDistance returns the L2 distance between two flat parameter
// vectors.
func modelDistance(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("dimension mismatch %d vs %d", len(a), len(b))
	}
	return tensor.Norm2(tensor.Sub(a, b)), nil
}
