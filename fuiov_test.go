package fuiov_test

import (
	"context"
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
	dist, err := fuiov.ModelDistance(res.Params, res.Unlearned)
	if err != nil {
		t.Fatal(err)
	}
	if dist == 0 {
		t.Error("recovery left the model unchanged")
	}
}

func TestPublicAPIAttackAndIoV(t *testing.T) {
	// Backdoor helpers reachable through the facade.
	bd := fuiov.DefaultBackdoor()
	if bd.TargetClass != 2 || bd.PatchSize != 3 {
		t.Errorf("DefaultBackdoor = %+v", bd)
	}
	// IoV trace satisfies the Schedule interface.
	tr, err := fuiov.SimulateIoV(fuiov.IoVConfig{
		SegmentLength: 3000,
		RSU:           fuiov.RSU{Pos: 1500, Radius: 800},
		NumVehicles:   5,
		MinSpeed:      10,
		MaxSpeed:      30,
		RoundDuration: 20,
		Seed:          1,
	}, 20)
	if err != nil {
		t.Fatal(err)
	}
	var sched fuiov.Schedule = tr
	count := 0
	for round := 0; round < 20; round++ {
		if sched.Participates(0, round) {
			count++
		}
	}
	if count == 0 || count == 20 {
		t.Logf("vehicle 0 connected %d/20 rounds (static is possible but unusual)", count)
	}
}

func TestPublicAPIRSAAndDetection(t *testing.T) {
	const seed = 101
	data := fuiov.SynthDigits(fuiov.DefaultDigits(500, seed))
	train, test := data.Split(fuiov.NewRNG(seed), 0.85)
	shards, err := fuiov.PartitionIID(train, fuiov.NewRNG(seed), 5)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*fuiov.Client, len(shards))
	for i, s := range shards {
		clients[i] = &fuiov.Client{ID: fuiov.ClientID(i), Data: s}
	}
	model := fuiov.NewMLP(data.Dims.Size(), 16, data.Classes)
	model.Init(fuiov.NewRNG(seed))

	// RSA protocol reachable through the facade.
	rsa, err := fuiov.NewRSASimulation(model, clients, fuiov.RSAConfig{
		LearningRate: 0.01, Lambda: 0.5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rsa.RunContext(context.Background(), 30); err != nil {
		t.Fatal(err)
	}
	if acc := fuiov.Accuracy(rsa.ServerModel(), test); acc <= 0 {
		t.Errorf("rsa accuracy = %v", acc)
	}

	// Detectors and robust aggregators compose in SimConfig.
	det := fuiov.NewCosineDetector()
	sim, err := fuiov.NewSimulation(model, clients, fuiov.SimConfig{
		LearningRate: 0.05, Seed: seed,
		Aggregator: fuiov.Median{},
		Recorders:  []fuiov.Recorder{det},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if len(det.Scores()) != 5 {
		t.Errorf("detector saw %d clients", len(det.Scores()))
	}

	// Confusion matrix through the facade.
	c, err := fuiov.ConfusionMatrix(sim.GlobalModel(), test)
	if err != nil {
		t.Fatal(err)
	}
	if c.Classes != data.Classes {
		t.Errorf("confusion classes = %d", c.Classes)
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
	_, rewritten, err := u.UnlearnAndCommitContext(context.Background(), 2)
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
