package unlearn

import (
	"context"
	"errors"
	"testing"

	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/tensor"
)

// buildGappyStore records a short history in which client 2 is missing
// from the pre-join window of the forgotten client (it sat out rounds
// 0..f-1), so its L-BFGS pairs cannot be seeded from storage alone.
func buildGappyStore(t *testing.T, dim, f, total int) *history.Store {
	t.Helper()
	store, err := history.NewStore(dim, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	model := make([]float64, dim)
	for round := 0; round < total; round++ {
		grads := map[history.ClientID][]float64{}
		// Client 0 participates always; client 1 (forgotten) joins at
		// f; client 2 joins at f too, so it has no pre-join history.
		g := make([]float64, dim)
		for i := range g {
			g[i] = 0.1 * float64((round+i)%3-1)
		}
		grads[0] = g
		if round >= f {
			grads[1] = g
			grads[2] = g
		}
		if err := store.RecordRound(round, model, grads, nil); err != nil {
			t.Fatal(err)
		}
		for i := range model {
			model[i] -= 0.01 * g[i]
		}
	}
	return store
}

func TestOnlineBootstrapFillsGaps(t *testing.T) {
	const dim, f, total = 8, 3, 10
	store := buildGappyStore(t, dim, f, total)

	// Without the online hook, only client 0 can be bootstrapped.
	u, err := New(store, Config{LearningRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.BootstrappedClients != 1 {
		t.Fatalf("offline bootstrap count = %d, want 1", res.BootstrappedClients)
	}

	// With the hook, client 2 computes fresh gradients on dispatched
	// historical models and joins the bootstrapped set.
	var calls []int
	u2, err := New(store, Config{
		LearningRate: 0.01,
		OnlineBootstrap: func(id history.ClientID, round int, params []float64) ([]float64, error) {
			if id != 2 {
				t.Errorf("unexpected online bootstrap for client %d", id)
			}
			if len(params) != dim {
				t.Errorf("dispatched model has %d params", len(params))
			}
			calls = append(calls, round)
			g := make([]float64, dim)
			for i := range g {
				g[i] = 0.05 * float64(i%2*2-1)
			}
			return g, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := u2.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.BootstrappedClients != 2 {
		t.Fatalf("online bootstrap count = %d, want 2", res2.BootstrappedClients)
	}
	if len(calls) == 0 {
		t.Fatal("online bootstrap callback never invoked")
	}
	for _, round := range calls {
		if round < f-2 || round >= f {
			t.Errorf("bootstrap requested round %d outside pre-join window", round)
		}
	}
	if !tensor.AllFinite(res2.Params) {
		t.Fatal("non-finite recovery with online bootstrap")
	}
}

func TestOnlineBootstrapOfflineClientSkipped(t *testing.T) {
	const dim, f, total = 8, 3, 10
	store := buildGappyStore(t, dim, f, total)
	u, err := New(store, Config{
		LearningRate: 0.01,
		OnlineBootstrap: func(history.ClientID, int, []float64) ([]float64, error) {
			return nil, errors.New("vehicle out of coverage")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Offline hook behaves exactly like no hook.
	if res.BootstrappedClients != 1 {
		t.Fatalf("bootstrap count = %d, want 1", res.BootstrappedClients)
	}
}

func TestOnlineBootstrapMalformedGradientSkipped(t *testing.T) {
	const dim, f, total = 8, 3, 10
	store := buildGappyStore(t, dim, f, total)
	u, err := New(store, Config{
		LearningRate: 0.01,
		OnlineBootstrap: func(history.ClientID, int, []float64) ([]float64, error) {
			return []float64{1, 2}, nil // wrong dimension
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.BootstrappedClients != 1 {
		t.Fatalf("bootstrap count = %d, want 1", res.BootstrappedClients)
	}
}

// TestOnlineBootstrapWithRealClient wires the hook to an actual
// fl.Client, the way a deployment would.
func TestOnlineBootstrapWithRealClient(t *testing.T) {
	fed := trainFederation(t, 5, 20, 4, 11)
	// Pretend client 2 has no stored pre-join directions by using a
	// hook-backed unlearner anyway: the hook must never be called for
	// clients that DO have stored history.
	var hookCalls int
	clientByID := map[history.ClientID]*fl.Client{}
	for _, c := range fed.clients {
		clientByID[c.ID] = c
	}
	u, err := New(fed.store, Config{
		LearningRate: fed.lr,
		OnlineBootstrap: func(id history.ClientID, round int, params []float64) ([]float64, error) {
			hookCalls++
			c, ok := clientByID[id]
			if !ok {
				return nil, errors.New("offline")
			}
			return c.ComputeGradient(fed.net, params, fed.seed, round)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// All remaining clients had full pre-join history, so the hook is
	// never needed.
	if hookCalls != 0 {
		t.Errorf("hook called %d times despite complete history", hookCalls)
	}
	if !tensor.AllFinite(res.Params) {
		t.Fatal("non-finite recovery")
	}
}
