// Poison recovery: 20% of vehicles mount a backdoor attack; once they
// are detected, the RSU erases every update they ever contributed and
// recovers the clean model — the Fig. 1 scenario of the paper.
//
//	go run ./examples/poisonrecovery
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
		seed   = 11
		nCars  = 10
		rounds = 150
		lr     = 0.03
		joinF  = 2 // attackers join federated learning at round 2
	)

	data := fuiov.SynthDigits(fuiov.DefaultDigits(900, seed))
	train, test := data.Split(fuiov.NewRNG(seed), 0.85)
	shards, err := fuiov.PartitionIID(train, fuiov.NewRNG(seed), nCars)
	if err != nil {
		return err
	}

	// Vehicles 0 and 1 are malicious: they stamp a 3x3 trigger on half
	// their samples and relabel them to class 2.
	backdoor := fuiov.DefaultBackdoor()
	attackers := []fuiov.ClientID{0, 1}
	schedule := fuiov.IntervalSchedule{}
	clients := make([]*fuiov.Client, nCars)
	for i := range clients {
		shard := shards[i]
		join := 0
		if i < len(attackers) {
			shard = backdoor.Poison(shard, fuiov.NewRNG(seed).Split(uint64(i)))
			join = joinF
		}
		clients[i] = &fuiov.Client{ID: fuiov.ClientID(i), Data: shard}
		schedule[fuiov.ClientID(i)] = fuiov.Interval{Join: join, Leave: -1}
	}

	model := fuiov.NewMLP(data.Dims.Size(), 24, data.Classes)
	model.Init(fuiov.NewRNG(seed))
	store, err := fuiov.NewStore(model.NumParams(), 1e-6)
	if err != nil {
		return err
	}
	sim, err := fuiov.NewSimulation(model, clients, fuiov.SimConfig{
		LearningRate: lr,
		Seed:         seed,
		Schedule:     schedule,
		Store:        store,
	})
	if err != nil {
		return err
	}
	if err := sim.RunContext(context.Background(), rounds); err != nil {
		return err
	}

	eval := model.Clone()
	eval.SetParamVector(sim.Params())
	fmt.Printf("poisoned model:   accuracy %.3f, attack success rate %.1f%%\n",
		fuiov.Accuracy(eval, test), 100*backdoor.SuccessRate(eval, test))

	// The detector (out of scope here, cf. FLDetector et al.) flags
	// the attackers; the RSU erases them entirely.
	u, err := fuiov.NewUnlearner(store, fuiov.UnlearnConfig{
		LearningRate:  lr,
		ClipThreshold: 0.05,
	})
	if err != nil {
		return err
	}
	res, err := u.UnlearnContext(context.Background(), attackers...)
	if err != nil {
		return err
	}

	eval.SetParamVector(res.Unlearned)
	fmt.Printf("after forgetting: accuracy %.3f, attack success rate %.1f%%\n",
		fuiov.Accuracy(eval, test), 100*backdoor.SuccessRate(eval, test))

	eval.SetParamVector(res.Params)
	fmt.Printf("after recovery:   accuracy %.3f, attack success rate %.1f%%\n",
		fuiov.Accuracy(eval, test), 100*backdoor.SuccessRate(eval, test))
	fmt.Printf("(backtracked to round %d; recovery ran without any client)\n",
		res.BacktrackRound)
	return nil
}
