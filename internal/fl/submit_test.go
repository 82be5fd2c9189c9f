package fl

import (
	"context"
	"errors"
	"testing"

	"fuiov/internal/dataset"
	"fuiov/internal/history"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
)

// submitFixture builds a small federation twice from the same seed so a
// test can drive one copy with RunRound and the other with SubmitRound.
func submitFixture(t *testing.T, cfg Config) (*Simulation, []*Client) {
	t.Helper()
	const seed = 11
	data := dataset.SynthDigits(dataset.DefaultDigits(120, seed))
	shards, err := dataset.PartitionIID(data, rng.New(seed), 4)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, len(shards))
	for i, s := range shards {
		clients[i] = &Client{ID: history.ClientID(i), Data: s}
	}
	model := nn.NewMLP(data.Dims.Size(), 8, data.Classes)
	model.Init(rng.New(seed))
	cfg.LearningRate = 0.05
	cfg.Seed = seed
	sim, err := NewSimulation(model, clients, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, clients
}

// TestSubmitRoundBitIdentical feeds SubmitRound the exact gradients an
// in-process round computes and requires the same model bits.
func TestSubmitRoundBitIdentical(t *testing.T) {
	ref, _ := submitFixture(t, Config{})
	ext, clients := submitFixture(t, Config{})

	for round := 0; round < 5; round++ {
		// External path: compute uploads the way remote agents would.
		grads := make(map[history.ClientID][]float64, len(clients))
		weights := make(map[history.ClientID]float64, len(clients))
		params := ext.Params()
		for _, c := range clients {
			g, err := c.ComputeGradient(ext.Template(), params, 11, round)
			if err != nil {
				t.Fatal(err)
			}
			grads[c.ID] = g
			weights[c.ID] = c.Weight()
		}
		if err := ext.SubmitRound(grads, weights, len(clients)); err != nil {
			t.Fatal(err)
		}
		if err := ref.RunRoundContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	a, b := ref.Params(), ext.Params()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("params diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if ref.Round() != ext.Round() {
		t.Fatalf("round clocks diverge: %d vs %d", ref.Round(), ext.Round())
	}
}

func TestSubmitRoundValidation(t *testing.T) {
	sim, clients := submitFixture(t, Config{FaultPolicy: &FaultPolicy{Quorum: 0.75}})
	params := sim.Params()
	g, err := clients[0].ComputeGradient(sim.Template(), params, 11, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Unknown client.
	err = sim.SubmitRound(map[history.ClientID][]float64{99: g},
		map[history.ClientID]float64{99: 1}, 4)
	if !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("unknown client: %v", err)
	}
	// Dimension mismatch.
	err = sim.SubmitRound(map[history.ClientID][]float64{0: g[:3]},
		map[history.ClientID]float64{0: 1}, 4)
	if err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	// Missing weight.
	err = sim.SubmitRound(map[history.ClientID][]float64{0: g},
		map[history.ClientID]float64{}, 4)
	if err == nil {
		t.Fatal("missing weight accepted")
	}
	// Quorum shortfall: 1 of 4 responders under a 0.75 quorum.
	err = sim.SubmitRound(map[history.ClientID][]float64{0: g},
		map[history.ClientID]float64{0: clients[0].Weight()}, 4)
	if !errors.Is(err, ErrQuorumNotReached) {
		t.Fatalf("quorum shortfall: %v", err)
	}
	if sim.Round() != 0 {
		t.Fatalf("failed submit advanced the clock to %d", sim.Round())
	}
	// Empty round: no scheduled clients commits and advances.
	if err := sim.SubmitRound(nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if sim.Round() != 1 {
		t.Fatalf("empty round left clock at %d", sim.Round())
	}
}
