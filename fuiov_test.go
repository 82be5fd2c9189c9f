package fuiov_test

import (
	"context"
	"slices"
	"testing"

	"fuiov"
)

// TestPublicAPIEndToEnd drives the whole documented flow through the
// facade: train, record, attack-check, unlearn, recover, compare with
// a baseline — exactly what a downstream user would write.
func TestPublicAPIEndToEnd(t *testing.T) {
	const seed = 99
	data := fuiov.SynthDigits(fuiov.DefaultDigits(800, seed))
	train, test := data.Split(fuiov.NewRNG(seed), 0.85)
	shards, err := fuiov.PartitionIID(train, fuiov.NewRNG(seed), 8)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*fuiov.Client, len(shards))
	for i, s := range shards {
		clients[i] = &fuiov.Client{ID: fuiov.ClientID(i), Data: s}
	}
	model := fuiov.NewMLP(data.Dims.Size(), 24, data.Classes)
	model.Init(fuiov.NewRNG(seed))
	store, err := fuiov.NewStore(model.NumParams(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	full, err := fuiov.NewFullHistory(model.NumParams())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := fuiov.NewSimulation(model, clients, fuiov.SimConfig{
		LearningRate: 0.03,
		Seed:         seed,
		Store:        store,
		Recorders:    []fuiov.Recorder{full},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), 60); err != nil {
		t.Fatal(err)
	}

	u, err := fuiov.NewUnlearner(store, fuiov.UnlearnConfig{
		LearningRate:  0.03,
		ClipThreshold: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.UnlearnContext(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	accRecovered := fuiov.AccuracyAt(model.Clone(), res.Params, test)
	accUnlearned := fuiov.AccuracyAt(model.Clone(), res.Unlearned, test)
	if accRecovered <= accUnlearned {
		t.Errorf("recovery did not improve: %.3f -> %.3f", accUnlearned, accRecovered)
	}
	if slices.Equal(res.Params, res.Unlearned) {
		t.Error("recovery left the model unchanged")
	}
}

// TestPublicAPIDetection composes the detectors with a simulation the
// way examples/detectunlearn does: both plug in as SimConfig.Recorders
// and score every client that uploaded.
func TestPublicAPIDetection(t *testing.T) {
	const seed = 101
	data := fuiov.SynthDigits(fuiov.DefaultDigits(500, seed))
	shards, err := fuiov.PartitionIID(data, fuiov.NewRNG(seed), 5)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*fuiov.Client, len(shards))
	for i, s := range shards {
		clients[i] = &fuiov.Client{ID: fuiov.ClientID(i), Data: s}
	}
	model := fuiov.NewMLP(data.Dims.Size(), 16, data.Classes)
	model.Init(fuiov.NewRNG(seed))

	cosine := fuiov.NewCosineDetector()
	consistency := fuiov.NewConsistencyDetector()
	sim, err := fuiov.NewSimulation(model, clients, fuiov.SimConfig{
		LearningRate: 0.05, Seed: seed,
		Recorders: []fuiov.Recorder{cosine, consistency},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if n := len(cosine.Scores()); n != 5 {
		t.Errorf("cosine detector saw %d clients", n)
	}
	if n := len(consistency.Scores()); n != 5 {
		t.Errorf("consistency detector saw %d clients", n)
	}
}

func TestPublicAPICommit(t *testing.T) {
	const seed = 102
	data := fuiov.SynthDigits(fuiov.DefaultDigits(400, seed))
	train, _ := data.Split(fuiov.NewRNG(seed), 0.9)
	shards, err := fuiov.PartitionIID(train, fuiov.NewRNG(seed), 4)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*fuiov.Client, len(shards))
	for i, s := range shards {
		clients[i] = &fuiov.Client{ID: fuiov.ClientID(i), Data: s}
	}
	model := fuiov.NewMLP(data.Dims.Size(), 16, data.Classes)
	model.Init(fuiov.NewRNG(seed))
	store, err := fuiov.NewStore(model.NumParams(), 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := fuiov.NewSimulation(model, clients, fuiov.SimConfig{
		LearningRate: 0.05, Seed: seed, Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), 15); err != nil {
		t.Fatal(err)
	}
	u, err := fuiov.NewUnlearner(store, fuiov.UnlearnConfig{
		LearningRate: 0.05, ClipThreshold: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := u.BeginCommit(2)
	if err != nil {
		t.Fatal(err)
	}
	_, rewritten, err := cp.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rewritten.Rounds() != 15 {
		t.Errorf("rewritten rounds = %d", rewritten.Rounds())
	}
	if _, err := rewritten.JoinRound(2); err == nil {
		t.Error("committed store still knows client 2")
	}
}
