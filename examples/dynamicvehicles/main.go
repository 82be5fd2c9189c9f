// Dynamic vehicles: clients join and leave federated learning
// mid-training — the IoV property that breaks FedRecover/FedEraser.
// A vehicle that joined at round 40 and left at round 100 is erased
// afterwards, even though it is no longer reachable.
//
//	go run ./examples/dynamicvehicles
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
		seed   = 5
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

	// A deliberately dynamic membership plan:
	//   vehicles 0-7: steady participants from round 0
	//   vehicle  8:  joins at round 40, leaves (drives away) at 100
	//   vehicle  9:  joins at round 20, stays
	//   vehicles 10, 11: join at rounds 60 and 90
	const latecomer = fuiov.ClientID(8)
	schedule := fuiov.IntervalSchedule{
		8:  {Join: 40, Leave: 100},
		9:  {Join: 20, Leave: -1},
		10: {Join: 60, Leave: -1},
		11: {Join: 90, Leave: -1},
	}
	clients := make([]*fuiov.Client, nCars)
	for i := range clients {
		clients[i] = &fuiov.Client{ID: fuiov.ClientID(i), Data: shards[i]}
		if _, ok := schedule[fuiov.ClientID(i)]; !ok {
			schedule[fuiov.ClientID(i)] = fuiov.Interval{Join: 0, Leave: -1}
		}
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
	store.NoteLeave(latecomer, 100)
	accTrained := fuiov.AccuracyAt(model.Clone(), sim.Params(), test)
	fmt.Printf("trained with dynamic membership: accuracy %.3f\n", accTrained)

	// Vehicle 8 is gone — it left at round 100 and cannot help with
	// recovery. The reinitialise-and-replay methods would now need it
	// online; backtracking does not.
	join, err := store.JoinRound(latecomer)
	if err != nil {
		return err
	}
	fmt.Printf("erasing vehicle %d (participated rounds %d-99, now offline)\n",
		latecomer, join)

	u, err := fuiov.NewUnlearner(store, fuiov.UnlearnConfig{
		LearningRate:  lr,
		ClipThreshold: 0.05,
	})
	if err != nil {
		return err
	}
	res, err := u.UnlearnContext(context.Background(), latecomer)
	if err != nil {
		return err
	}
	fmt.Printf("backtracked to round %d — rounds 0-%d of training survive\n",
		res.BacktrackRound, res.BacktrackRound-1)
	fmt.Printf("unlearned accuracy %.3f -> recovered accuracy %.3f (trained %.3f)\n",
		fuiov.AccuracyAt(model.Clone(), res.Unlearned, test),
		fuiov.AccuracyAt(model.Clone(), res.Params, test),
		accTrained)
	fmt.Printf("%d remaining clients were bootstrapped from pre-join history\n",
		res.BootstrappedClients)
	return nil
}
