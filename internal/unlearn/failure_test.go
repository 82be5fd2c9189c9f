package unlearn

import (
	"context"
	"testing"

	"fuiov/internal/history"
	"fuiov/internal/rng"
	"fuiov/internal/tensor"
)

// randomStore builds a synthetic history with the given shape; the
// gradients are random, which stresses the recovery numerics harder
// than real training gradients do.
func randomStore(t *testing.T, seed uint64, dim, rounds, clients, joinF int) *history.Store {
	t.Helper()
	r := rng.New(seed)
	store, err := history.NewStore(dim, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	model := make([]float64, dim)
	for i := range model {
		model[i] = r.Normal()
	}
	for round := 0; round < rounds; round++ {
		grads := map[history.ClientID][]float64{}
		for c := 0; c < clients; c++ {
			if c == 1 && round < joinF {
				continue
			}
			g := make([]float64, dim)
			for i := range g {
				g[i] = r.NormalScaled(0, 0.05)
			}
			grads[history.ClientID(c)] = g
		}
		if err := store.RecordRound(round, model, grads, nil); err != nil {
			t.Fatal(err)
		}
		for i := range model {
			model[i] += r.NormalScaled(0, 0.01)
		}
	}
	return store
}

func TestRecoveryFiniteOnRandomHistories(t *testing.T) {
	// Property-style sweep: across many random histories and configs,
	// recovery must terminate with finite parameters and sane
	// accounting — never panic, never NaN.
	for seed := uint64(0); seed < 15; seed++ {
		r := rng.New(seed)
		dim := 4 + r.IntN(20)
		rounds := 5 + r.IntN(15)
		clients := 3 + r.IntN(5)
		joinF := r.IntN(rounds / 2)
		store := randomStore(t, seed, dim, rounds, clients, joinF)
		cfg := Config{
			LearningRate:  0.001 + r.Float64()*0.1,
			PairSize:      1 + r.IntN(4),
			ClipThreshold: 0.01 + r.Float64(),
			RefreshEvery:  1 + r.IntN(10),
		}
		u, err := New(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := u.UnlearnContext(context.Background(), 1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !tensor.AllFinite(res.Params) {
			t.Fatalf("seed %d: non-finite recovery", seed)
		}
		if res.BacktrackRound != joinF {
			t.Fatalf("seed %d: F = %d, want %d", seed, res.BacktrackRound, joinF)
		}
		if res.RecoveredRounds != rounds-joinF {
			t.Fatalf("seed %d: recovered %d rounds, want %d",
				seed, res.RecoveredRounds, rounds-joinF)
		}
	}
}

func TestPairSizeLargerThanPreJoinWindow(t *testing.T) {
	// F=1 with s=4: only one pre-join round exists; bootstrap must use
	// what's available without erroring.
	store := randomStore(t, 7, 10, 12, 4, 1)
	u, err := New(store, Config{LearningRate: 0.01, PairSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllFinite(res.Params) {
		t.Fatal("non-finite recovery")
	}
	if res.BootstrappedClients == 0 {
		t.Error("expected bootstrap from the single pre-join round")
	}
}

func TestRefreshEveryRound(t *testing.T) {
	store := randomStore(t, 8, 8, 10, 4, 2)
	u, err := New(store, Config{LearningRate: 0.01, RefreshEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllFinite(res.Params) {
		t.Fatal("non-finite recovery with per-round refresh")
	}
	if res.PairRefreshes == 0 {
		t.Error("expected refreshes with RefreshEvery=1")
	}
}

func TestForgettingEveryParticipant(t *testing.T) {
	// Forgetting all clients leaves no gradients to aggregate: the
	// "recovered" model must remain the backtracked model.
	store := randomStore(t, 9, 6, 8, 3, 0)
	u, err := New(store, Config{LearningRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.UnlearnContext(context.Background(), 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(res.Params, res.Unlearned, 0) {
		t.Error("recovery with zero remaining clients should be a no-op")
	}
}

func TestUnlearnIsRepeatable(t *testing.T) {
	// Running the same unlearning twice must not mutate the store.
	store := randomStore(t, 10, 8, 10, 4, 2)
	u, err := New(store, Config{LearningRate: 0.02})
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
		t.Error("second unlearning differs — store was mutated")
	}
}

func TestZeroGradientHistory(t *testing.T) {
	// All-zero gradients yield all-zero directions and degenerate
	// pairs; recovery must fall back gracefully.
	store, err := history.NewStore(6, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	model := make([]float64, 6)
	for round := 0; round < 5; round++ {
		grads := map[history.ClientID][]float64{
			0: make([]float64, 6),
			1: make([]float64, 6),
		}
		if err := store.RecordRound(round, model, grads, nil); err != nil {
			t.Fatal(err)
		}
	}
	u, err := New(store, Config{LearningRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(res.Params, res.Unlearned, 0) {
		t.Error("zero-gradient history should leave the model unchanged")
	}
	if res.DegenerateFallbacks == 0 {
		t.Error("expected degenerate fallbacks on zero history")
	}
}

func TestRecoveryDeterministicAcrossParallelism(t *testing.T) {
	store := randomStore(t, 12, 10, 12, 8, 3)
	run := func(par int) []float64 {
		u, err := New(store, Config{LearningRate: 0.02, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		res, err := u.UnlearnContext(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.Params
	}
	serial := run(1)
	parallel := run(8)
	if !equal(serial, parallel, 0) {
		t.Error("recovery differs across parallelism settings")
	}
}
