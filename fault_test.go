package fuiov_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"fuiov"
)

// TestFaultTolerantPipeline is the PR's acceptance scenario driven
// entirely through the facade: with ~30% of client attempts crashing
// or timing out per round under a seeded plan, training completes via
// quorum (no hang), converges on digits, and a subsequent Unlearn
// succeeds even though every online-bootstrap dispatch fails (the
// offline fallback).
func TestFaultTolerantPipeline(t *testing.T) {
	const (
		seed   = 77
		nCars  = 10
		rounds = 100
		lr     = 0.04
	)
	data := fuiov.SynthDigits(fuiov.DefaultDigits(900, seed))
	train, test := data.Split(fuiov.NewRNG(seed), 0.85)
	shards, err := fuiov.PartitionIID(train, fuiov.NewRNG(seed), nCars)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*fuiov.Client, nCars)
	for i := range clients {
		clients[i] = &fuiov.Client{ID: fuiov.ClientID(i), Data: shards[i], BatchSize: 32}
	}
	// Crashes plus stragglers: ~15% of attempts crash outright, and
	// injected latencies above the deadline time out about as often.
	plan := fuiov.NewFaultPlan(seed, fuiov.FaultSpec{
		CrashProb: 0.15,
		DelayMin:  0,
		DelayMax:  350 * time.Millisecond,
	})
	model := fuiov.NewMLP(data.Dims.Size(), 24, data.Classes)
	model.Init(fuiov.NewRNG(seed))
	store, err := fuiov.NewStore(model.NumParams(), 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	sched := fuiov.IntervalSchedule{}
	for i := 0; i < nCars; i++ {
		sched[fuiov.ClientID(i)] = fuiov.Interval{Join: 0, Leave: -1}
	}
	sched[1] = fuiov.Interval{Join: 2, Leave: -1} // the client to erase
	sched[2] = fuiov.Interval{Join: 1, Leave: -1} // pre-join gap → bootstrap
	sim, err := fuiov.NewSimulation(model, clients, fuiov.SimConfig{
		LearningRate: lr,
		Seed:         seed,
		Schedule:     sched,
		Store:        store,
		Faults:       plan,
		FaultPolicy: &fuiov.FaultPolicy{
			ClientTimeout: 300 * time.Millisecond,
			MaxRetries:    2,
			Quorum:        0.3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- sim.RunContext(context.Background(), rounds) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("faulty training: %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("training hung under faults")
	}
	if acc := fuiov.AccuracyAt(model.Clone(), sim.Params(), test); acc < 0.55 {
		t.Errorf("trained accuracy %.3f under faults, want >= 0.55", acc)
	}

	u, err := fuiov.NewUnlearner(store, fuiov.UnlearnConfig{
		LearningRate:  lr,
		ClipThreshold: 0.05,
		OnlineBootstrap: func(id fuiov.ClientID, round int, params []float64) ([]float64, error) {
			return nil, fmt.Errorf("vehicle %d out of coverage", id)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatalf("unlearn after faulty training: %v", err)
	}
	if res.BacktrackRound != 2 {
		t.Errorf("backtrack round %d, want 2", res.BacktrackRound)
	}
	if acc := fuiov.AccuracyAt(model.Clone(), res.Params, test); acc < 0.5 {
		t.Errorf("recovered accuracy %.3f, want >= 0.5", acc)
	}
}

// TestFacadeSentinelsAndContext exercises the re-exported sentinels
// and the ctx-first API surface through the facade.
func TestFacadeSentinelsAndContext(t *testing.T) {
	const seed = 83
	data := fuiov.SynthDigits(fuiov.DefaultDigits(300, seed))
	shards, err := fuiov.PartitionIID(data, fuiov.NewRNG(seed), 4)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*fuiov.Client, 4)
	for i := range clients {
		clients[i] = &fuiov.Client{ID: fuiov.ClientID(i), Data: shards[i]}
	}
	model := fuiov.NewMLP(data.Dims.Size(), 16, data.Classes)
	model.Init(fuiov.NewRNG(seed))
	allCrash := fuiov.NewFaultPlan(seed, fuiov.FaultSpec{CrashProb: 1})
	sim, err := fuiov.NewSimulation(model, clients, fuiov.SimConfig{
		LearningRate: 0.05,
		Seed:         seed,
		Faults:       allCrash,
		FaultPolicy:  &fuiov.FaultPolicy{Quorum: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunRoundContext(context.Background()); !errors.Is(err, fuiov.ErrQuorumNotReached) {
		t.Fatalf("err = %v, want ErrQuorumNotReached", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sim.RunContext(ctx, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext err = %v, want context.Canceled", err)
	}
	if _, err := fuiov.Unlearn(ctx, "retrain", fuiov.UnlearnRequest{
		Forgotten: []fuiov.ClientID{0}, Template: model, Clients: clients,
		LearningRate: 0.05, Rounds: 3, Seed: seed,
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Unlearn(retrain) err = %v, want context.Canceled", err)
	}
}
