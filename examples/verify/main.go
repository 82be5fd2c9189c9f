// Forgetting verification: did unlearning actually make the model
// forget? Bit-identity to the retrained weights is one answer; this
// example measures forgetting directly. A backdoored federation
// trains, two strategies erase the attackers, and the verification
// suite scores each unlearned model with a shadow-model membership
// attack, the trigger's retained success rate, and how fast continued
// training re-memorizes the forgotten data.
//
//	go run ./examples/verify
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
		seed   = 17
		nCars  = 12
		rounds = 150
		lr     = 0.03
	)
	ctx := context.Background()

	data := fuiov.SynthDigits(fuiov.DefaultDigits(1000, seed))
	train, test := data.Split(fuiov.NewRNG(seed), 0.85)
	shards, err := fuiov.PartitionIID(train, fuiov.NewRNG(seed), nCars)
	if err != nil {
		return err
	}

	// Vehicles 2 and 7 stamp the backdoor trigger on their shards.
	backdoor := fuiov.DefaultBackdoor()
	forgotten := []fuiov.ClientID{2, 7}
	poisoned := map[fuiov.ClientID]bool{2: true, 7: true}
	clients := make([]*fuiov.Client, nCars)
	for i := range clients {
		shard := shards[i]
		if poisoned[fuiov.ClientID(i)] {
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
	before := sim.Params()

	// One suite — shadow models and membership attack fitted once —
	// scores every strategy.
	suite, err := fuiov.NewVerifySuite(ctx, fuiov.VerifyTarget{
		Template:     model,
		Clients:      clients,
		Forgotten:    forgotten,
		Test:         test,
		Before:       before,
		LearningRate: lr,
		Seed:         seed,
		Backdoor:     backdoor,
	}, fuiov.VerifyConfig{})
	if err != nil {
		return err
	}

	req := fuiov.UnlearnRequest{
		Forgotten:    forgotten,
		Store:        store,
		Template:     model,
		Clients:      clients,
		FinalParams:  before,
		LearningRate: lr,
		Rounds:       rounds,
		Seed:         seed,
	}
	for _, name := range []string{"paper", "retrain"} {
		res, err := fuiov.Unlearn(ctx, name, req)
		if err != nil {
			return err
		}
		score, err := suite.Score(ctx, res.Params)
		if err != nil {
			return err
		}
		fmt.Printf("%s:\n", name)
		fmt.Printf("  MIA advantage     %.3f → %.3f (0 ≈ forgotten)\n",
			score.MIAAdvantageBefore, score.MIAAdvantageAfter)
		if score.BackdoorBefore != nil && score.BackdoorAfter != nil {
			fmt.Printf("  backdoor success  %.1f%% → %.1f%%\n",
				100**score.BackdoorBefore, 100**score.BackdoorAfter)
		}
		switch {
		case score.RelearnRounds < 0:
			fmt.Printf("  relearn           not re-memorized within the cap\n")
		default:
			fmt.Printf("  relearn           re-memorized after %d rounds\n", score.RelearnRounds)
		}
	}
	return nil
}
