package fl

import (
	"context"
	"testing"

	"fuiov/internal/history"
	"fuiov/internal/metrics"
	"fuiov/internal/nn"
)

func TestLocalStepsOneMatchesPlainGradient(t *testing.T) {
	clients, _, net := buildFederation(t, 2, 300, 50)
	c := clients[0]
	params := net.ParamVector()
	plain, err := c.ComputeGradient(net, params, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.LocalSteps = 1
	c.LocalLR = 0.1
	single, err := c.ComputeGradient(net, params, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(plain, single, 0) {
		t.Error("LocalSteps=1 must match the plain gradient path")
	}
}

func TestLocalStepsPseudoGradientSemantics(t *testing.T) {
	// With k=2 full-batch steps, the pseudo-gradient must equal
	// (w0 - w2)/lr where w2 is the result of two exact SGD steps.
	clients, _, net := buildFederation(t, 2, 300, 51)
	c := clients[0]
	c.BatchSize = 0 // full batch makes both paths deterministic
	params := net.ParamVector()

	// Manual two-step reference.
	ref := net.Clone()
	ref.SetParamVector(params)
	x, labels := c.Data.FullBatch()
	const lr = 0.05
	ref.LossAndGrad(x, labels)
	ref.SGDStep(lr)
	ref.LossAndGrad(x, labels)
	ref.SGDStep(lr)
	want := make([]float64, len(params))
	end := ref.ParamVector()
	for i := range want {
		want[i] = (params[i] - end[i]) / lr
	}

	c.LocalSteps = 2
	c.LocalLR = lr
	got, err := c.ComputeGradient(net, params, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(got, want, 1e-12) {
		t.Error("pseudo-gradient does not match two explicit SGD steps")
	}
}

func TestLocalStepsRequireLocalLR(t *testing.T) {
	clients, _, net := buildFederation(t, 2, 300, 52)
	c := clients[0]
	c.LocalSteps = 3
	if _, err := c.ComputeGradient(net, net.ParamVector(), 1, 0); err == nil {
		t.Error("LocalSteps > 1 without LocalLR should error")
	}
}

func TestLocalStepsAccelerateTraining(t *testing.T) {
	run := func(steps int) float64 {
		clients, test, net := buildFederation(t, 5, 700, 53)
		for _, c := range clients {
			c.LocalSteps = steps
			c.LocalLR = 0.05
			c.BatchSize = 32
		}
		sim, err := NewSimulation(net, clients, Config{LearningRate: 0.05, Seed: 53})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunContext(context.Background(), 20); err != nil {
			t.Fatal(err)
		}
		return metrics.AccuracyAt(net, sim.Params(), test)
	}
	single := run(1)
	multi := run(5)
	t.Logf("20 rounds: 1 local step -> %.3f, 5 local steps -> %.3f", single, multi)
	if multi <= single {
		t.Errorf("5 local steps (%.3f) should beat 1 (%.3f) at equal rounds", multi, single)
	}
}

func TestLocalStepsComposeWithUnlearningHistory(t *testing.T) {
	// Pseudo-gradients flow through the history store like any other
	// gradient: direction compression and recovery must keep working.
	clients, _, net := buildFederation(t, 4, 400, 54)
	for _, c := range clients {
		c.LocalSteps = 3
		c.LocalLR = 0.05
	}
	store, err := newStoreFor(net)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulation(net, clients, Config{
		LearningRate: 0.05, Seed: 54, Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if store.Rounds() != 10 {
		t.Fatalf("store rounds = %d", store.Rounds())
	}
	if _, err := store.Direction(5, clients[0].ID); err != nil {
		t.Fatalf("direction missing: %v", err)
	}
}

// newStoreFor builds a direction store sized for the network.
func newStoreFor(net *nn.Network) (*history.Store, error) {
	return history.NewStore(net.NumParams(), 1e-2)
}
