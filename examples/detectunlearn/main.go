// Detect-and-unlearn: the complete defensive loop the paper motivates.
// Malicious vehicles poison training; detectors watching the round
// traffic flag them; the RSU erases every update they contributed and
// recovers the clean model — all from the 2-bit direction history.
//
//	go run ./examples/detectunlearn
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"fuiov"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		seed   = 17
		nCars  = 12
		rounds = 150
		lr     = 0.03
	)

	data := fuiov.SynthDigits(fuiov.DefaultDigits(1000, seed))
	train, test := data.Split(fuiov.NewRNG(seed), 0.85)
	shards, err := fuiov.PartitionIID(train, fuiov.NewRNG(seed), nCars)
	if err != nil {
		return err
	}

	// Vehicles 2 and 7 poison their shards with the backdoor trigger.
	backdoor := fuiov.DefaultBackdoor()
	malicious := map[int]bool{2: true, 7: true}
	clients := make([]*fuiov.Client, nCars)
	for i := range clients {
		shard := shards[i]
		if malicious[i] {
			shard = backdoor.Poison(shard, fuiov.NewRNG(seed).Split(uint64(i)))
		}
		clients[i] = &fuiov.Client{ID: fuiov.ClientID(i), Data: shard}
	}

	model := fuiov.NewMLP(data.Dims.Size(), 24, data.Classes)
	model.Init(fuiov.NewRNG(seed))
	store, err := fuiov.NewStore(model.NumParams(), 1e-2)
	if err != nil {
		return err
	}

	// Both detectors ride along as passive recorders.
	cosine := fuiov.NewCosineDetector()
	consistency := fuiov.NewConsistencyDetector()
	sim, err := fuiov.NewSimulation(model, clients, fuiov.SimConfig{
		LearningRate: lr,
		Seed:         seed,
		Store:        store,
		Recorders:    []fuiov.Recorder{cosine, consistency},
	})
	if err != nil {
		return err
	}
	if err := sim.RunContext(context.Background(), rounds); err != nil {
		return err
	}

	eval := model.Clone()
	eval.SetParamVector(sim.Params())
	fmt.Printf("poisoned training done: accuracy %.3f, backdoor success %.1f%%\n",
		fuiov.Accuracy(eval, test), 100*backdoor.SuccessRate(eval, test))

	// Union of both detectors' suspicions.
	suspects := map[fuiov.ClientID]bool{}
	for _, id := range cosine.Suspects() {
		suspects[id] = true
	}
	for _, id := range consistency.Suspects() {
		suspects[id] = true
	}
	if len(suspects) == 0 {
		fmt.Println("detectors found nothing; consider lowering MinGap")
		return nil
	}
	forgotten := make([]fuiov.ClientID, 0, len(suspects))
	for id := range suspects {
		forgotten = append(forgotten, id)
	}
	sort.Slice(forgotten, func(i, j int) bool { return forgotten[i] < forgotten[j] })
	fmt.Printf("detectors flagged vehicles %v (ground truth: 2 and 7)\n", forgotten)

	u, err := fuiov.NewUnlearner(store, fuiov.UnlearnConfig{
		LearningRate:  lr,
		ClipThreshold: 0.05,
	})
	if err != nil {
		return err
	}
	res, err := u.UnlearnContext(context.Background(), forgotten...)
	if err != nil {
		return err
	}
	eval.SetParamVector(res.Params)
	fmt.Printf("after unlearn+recover: accuracy %.3f, backdoor success %.1f%%\n",
		fuiov.Accuracy(eval, test), 100*backdoor.SuccessRate(eval, test))

	// Reference: a model that never saw the attackers. Its "success
	// rate" is the floor any trigger achieves on an imperfect model.
	retrained, err := fuiov.Unlearn(context.Background(), "retrain", fuiov.UnlearnRequest{
		Forgotten: forgotten, Template: model, Clients: clients,
		LearningRate: lr, Rounds: rounds, Seed: seed,
	})
	if err != nil {
		return err
	}
	eval.SetParamVector(retrained.Params)
	fmt.Printf("clean-retrain reference: accuracy %.3f, backdoor success %.1f%%\n",
		fuiov.Accuracy(eval, test), 100*backdoor.SuccessRate(eval, test))
	return nil
}
