// Telemetry: attach one metrics registry to the whole pipeline —
// training simulation, history store and unlearner — then read the
// paper's claims straight off the live instruments: per-phase round
// timings, the ~97% storage-saving gauge (§I claims ~95% vs float32),
// and the recovery-phase breakdown, all without touching the result
// structs.
//
//	go run ./examples/telemetry
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"fuiov"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		seed   = 33
		nCars  = 10
		rounds = 120
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

	// One registry collects every counter and timer of the run; the
	// report below reads them back.
	reg := fuiov.NewTelemetry()

	model := fuiov.NewMLP(data.Dims.Size(), 24, data.Classes)
	model.Init(fuiov.NewRNG(seed))
	store, err := fuiov.NewStore(model.NumParams(), 1e-2)
	if err != nil {
		return err
	}
	store.SetTelemetry(reg)
	sim, err := fuiov.NewSimulation(model, clients, fuiov.SimConfig{
		LearningRate: lr,
		Seed:         seed,
		Store:        store,
		Telemetry:    reg,
	})
	if err != nil {
		return err
	}
	if err := sim.RunContext(context.Background(), rounds); err != nil {
		return err
	}
	fmt.Printf("trained %d rounds, accuracy %.3f\n",
		rounds, fuiov.AccuracyAt(model.Clone(), sim.Params(), test))

	// The paper's §I storage claim, read from the live gauge the store
	// updates on every recorded round: 2-bit directions vs 64-bit
	// floats saves ~97% (≈95% against float32 uploads).
	const savingGauge = "history.compression_saving"
	saving, found := 0.0, false
	fmt.Println("\n-- storage (live gauges) --")
	for _, g := range reg.Snapshot().Gauges {
		fmt.Printf("%-32s %.4f\n", g.Name, g.Value)
		if g.Name == savingGauge {
			saving, found = g.Value, true
		}
	}
	if !found {
		return fmt.Errorf("gauge %s not registered", savingGauge)
	}
	report := store.Storage()
	fmt.Printf("gauge vs Storage() report: %.4f vs %.4f (must agree)\n",
		saving, report.GradientSavings)
	if saving != report.GradientSavings {
		return fmt.Errorf("gauge %s reads %v, Storage() reports %v",
			savingGauge, saving, report.GradientSavings)
	}
	if report.GradientSavings < 0.9 {
		return fmt.Errorf("expected ~95%%+ storage saving, gauge reads %.1f%%",
			100*report.GradientSavings)
	}

	// Unlearn vehicle 3 through the same registry: backtracking depth,
	// per-round recovery time and clip activations accrue alongside
	// the training metrics.
	u, err := fuiov.NewUnlearner(store, fuiov.UnlearnConfig{
		LearningRate:  lr,
		ClipThreshold: 0.05,
		Telemetry:     reg,
	})
	if err != nil {
		return err
	}
	res, err := u.UnlearnContext(context.Background(), 3)
	if err != nil {
		return err
	}
	fmt.Printf("\nforgot vehicle 3: backtracked to round %d, recovered %d rounds, accuracy %.3f\n",
		res.BacktrackRound, res.RecoveredRounds,
		fuiov.AccuracyAt(model.Clone(), res.Params, test))

	fmt.Println("\n-- full metrics snapshot --")
	return reg.Snapshot().WriteText(os.Stdout)
}
