package fuiov_test

import (
	"context"
	"fmt"

	"fuiov"
)

// Example demonstrates the core workflow: train a small federation
// while recording 2-bit direction history, then erase a vehicle by
// backtracking and recover the model entirely server-side.
func Example() {
	const seed = 7
	data := fuiov.SynthDigits(fuiov.DefaultDigits(500, seed))
	train, _ := data.Split(fuiov.NewRNG(seed), 0.9)
	shards, err := fuiov.PartitionIID(train, fuiov.NewRNG(seed), 5)
	if err != nil {
		fmt.Println("partition:", err)
		return
	}
	clients := make([]*fuiov.Client, len(shards))
	for i, s := range shards {
		clients[i] = &fuiov.Client{ID: fuiov.ClientID(i), Data: s}
	}
	model := fuiov.NewMLP(data.Dims.Size(), 16, data.Classes)
	model.Init(fuiov.NewRNG(seed))
	store, err := fuiov.NewStore(model.NumParams(), 1e-2)
	if err != nil {
		fmt.Println("store:", err)
		return
	}
	sim, err := fuiov.NewSimulation(model, clients, fuiov.SimConfig{
		LearningRate: 0.05, Seed: seed, Store: store,
	})
	if err != nil {
		fmt.Println("simulation:", err)
		return
	}
	if err := sim.RunContext(context.Background(), 20); err != nil {
		fmt.Println("train:", err)
		return
	}

	u, err := fuiov.NewUnlearner(store, fuiov.UnlearnConfig{
		LearningRate: 0.05, ClipThreshold: 0.05,
	})
	if err != nil {
		fmt.Println("unlearner:", err)
		return
	}
	res, err := u.UnlearnContext(context.Background(), 3)
	if err != nil {
		fmt.Println("unlearn:", err)
		return
	}
	fmt.Printf("backtracked to round %d, recovered %d rounds, forgot %v\n",
		res.BacktrackRound, res.RecoveredRounds, res.Forgotten)
	// Output: backtracked to round 0, recovered 20 rounds, forgot [3]
}

// ExampleStore_Storage shows the storage accounting behind the paper's
// "~95% saved" headline.
func ExampleStore_Storage() {
	store, err := fuiov.NewStore(1000, 1e-2)
	if err != nil {
		fmt.Println(err)
		return
	}
	grads := map[fuiov.ClientID][]float64{}
	for c := fuiov.ClientID(0); c < 4; c++ {
		g := make([]float64, 1000)
		for i := range g {
			g[i] = 0.05
		}
		grads[c] = g
	}
	if err := store.RecordRound(0, make([]float64, 1000), grads, nil); err != nil {
		fmt.Println(err)
		return
	}
	rep := store.Storage()
	fmt.Printf("directions: %d B, full gradients would be: %d B, saved: %.1f%%\n",
		rep.DirectionBytes, rep.FullGradientBytes, 100*rep.GradientSavings)
	// Output: directions: 1000 B, full gradients would be: 32000 B, saved: 96.9%
}

// ExampleInterval shows membership windows for dynamic vehicles.
func ExampleInterval() {
	schedule := fuiov.IntervalSchedule{
		0: {Join: 0, Leave: -1}, // stays forever
		1: {Join: 5, Leave: 20}, // joins late, drives away
	}
	fmt.Println(schedule.Participates(0, 100))
	fmt.Println(schedule.Participates(1, 4))
	fmt.Println(schedule.Participates(1, 10))
	fmt.Println(schedule.Participates(1, 20))
	// Output:
	// true
	// false
	// true
	// false
}
