// Storage savings: run the same training twice — once recording full
// float64 gradients (FedRecover's regime) and once recording only
// 2-bit directions — then compare the server's footprint and verify
// that unlearning still works from the compressed history.
//
//	go run ./examples/storagesavings
package main

import (
	"bytes"
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
		seed   = 21
		nCars  = 10
		rounds = 150
		lr     = 0.03
	)

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
	model := fuiov.NewMLP(data.Dims.Size(), 24, data.Classes)
	model.Init(fuiov.NewRNG(seed))

	// Record both representations in one training run.
	store, err := fuiov.NewStore(model.NumParams(), 1e-6)
	if err != nil {
		return err
	}
	full, err := fuiov.NewFullHistory(model.NumParams())
	if err != nil {
		return err
	}
	sim, err := fuiov.NewSimulation(model, clients, fuiov.SimConfig{
		LearningRate: lr,
		Seed:         seed,
		Store:        store,
		Recorders:    []fuiov.Recorder{full},
	})
	if err != nil {
		return err
	}
	if err := sim.RunContext(context.Background(), rounds); err != nil {
		return err
	}

	rep := store.Storage()
	fmt.Printf("model: %d parameters, %d vehicles, %d rounds\n",
		model.NumParams(), nCars, rounds)
	fmt.Printf("full float64 gradients: %10d bytes  (FedRecover/FedEraser regime)\n",
		full.StorageBytes())
	fmt.Printf("2-bit directions:       %10d bytes  (this paper)\n", rep.DirectionBytes)
	fmt.Printf("model snapshots:        %10d bytes  (needed by both)\n", rep.ModelBytes)
	fmt.Printf("gradient storage saved: %9.1f%%   (paper claims ~95%%)\n",
		100*rep.GradientSavings)

	// The compressed history is also what the persistence layer
	// writes; show the on-disk footprint.
	var snapshot bytes.Buffer
	if err := store.Save(&snapshot); err != nil {
		return err
	}
	fmt.Printf("serialized history snapshot: %d bytes\n", snapshot.Len())
	restored, err := fuiov.LoadStore(&snapshot)
	if err != nil {
		return err
	}

	// And unlearning works from the restored, compressed history.
	u, err := fuiov.NewUnlearner(restored, fuiov.UnlearnConfig{
		LearningRate:  lr,
		ClipThreshold: 0.05,
	})
	if err != nil {
		return err
	}
	res, err := u.UnlearnContext(context.Background(), 4)
	if err != nil {
		return err
	}
	fmt.Printf("unlearned vehicle 4 from the restored snapshot: recovered accuracy %.3f\n",
		fuiov.AccuracyAt(model.Clone(), res.Params, test))
	return nil
}
