// Quickstart: train a small federation, erase one vehicle with
// backtracking, recover the model server-side, and compare against
// retraining from scratch.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"fuiov"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		seed    = 42
		nCars   = 10
		rounds  = 150
		lr      = 0.03
		clipL   = 0.05
		deltaTh = 1e-6
	)

	// 1. Synthetic MNIST-style dataset, split into a test set and one
	// private shard per vehicle.
	data := fuiov.SynthDigits(fuiov.DefaultDigits(900, seed))
	train, test := data.Split(fuiov.NewRNG(seed), 0.85)
	shards, err := fuiov.PartitionIID(train, fuiov.NewRNG(seed), nCars)
	if err != nil {
		return err
	}
	clients := make([]*fuiov.Client, nCars)
	for i := range clients {
		clients[i] = &fuiov.Client{ID: fuiov.ClientID(i), Data: shards[i]}
	}

	// 2. Federated training. The history store records, per round, the
	// global model and each vehicle's 2-bit gradient direction — all
	// the server ever needs to unlearn later.
	model := fuiov.NewMLP(data.Dims.Size(), 24, data.Classes)
	model.Init(fuiov.NewRNG(seed))
	store, err := fuiov.NewStore(model.NumParams(), deltaTh)
	if err != nil {
		return err
	}
	sim, err := fuiov.NewSimulation(model, clients, fuiov.SimConfig{
		LearningRate: lr,
		Seed:         seed,
		Store:        store,
	})
	if err != nil {
		return err
	}
	if err := sim.RunContext(context.Background(), rounds); err != nil {
		return err
	}
	accTrained := fuiov.AccuracyAt(model.Clone(), sim.Params(), test)
	fmt.Printf("trained %d rounds, accuracy %.3f\n", rounds, accTrained)

	// 3. Vehicle 3 invokes its right to be forgotten. Backtrack to its
	// join round, then recover using only the stored history.
	u, err := fuiov.NewUnlearner(store, fuiov.UnlearnConfig{
		LearningRate:  lr,
		ClipThreshold: clipL,
	})
	if err != nil {
		return err
	}
	res, err := u.UnlearnContext(context.Background(), 3)
	if err != nil {
		return err
	}
	fmt.Printf("backtracked to round %d, recovered %d rounds server-side\n",
		res.BacktrackRound, res.RecoveredRounds)
	fmt.Printf("unlearned accuracy %.3f -> recovered accuracy %.3f\n",
		fuiov.AccuracyAt(model.Clone(), res.Unlearned, test),
		fuiov.AccuracyAt(model.Clone(), res.Params, test))

	// 4. Reference: retraining from scratch without vehicle 3 — the
	// gold standard the recovered model should approach.
	retrained, err := fuiov.Unlearn(context.Background(), "retrain", fuiov.UnlearnRequest{
		Forgotten:    []fuiov.ClientID{3},
		Template:     model,
		Clients:      clients,
		LearningRate: lr,
		Rounds:       rounds,
		Seed:         seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("retraining-from-scratch accuracy %.3f\n",
		fuiov.AccuracyAt(model.Clone(), retrained.Params, test))

	// 5. The storage price the server paid for this capability.
	rep := store.Storage()
	fmt.Printf("history: %d B directions vs %d B full gradients (%.1f%% saved)\n",
		rep.DirectionBytes, rep.FullGradientBytes, 100*rep.GradientSavings)
	return nil
}
