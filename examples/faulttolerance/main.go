// Fault tolerance: train a federation whose vehicles crash, straggle
// and corrupt uploads — the IoV reality the paper motivates with — and
// watch the round engine cope: per-client deadlines, bounded retries,
// upload validation and quorum-based degradation keep
// training converging, absentees are recorded as non-participants so
// unlearning stays consistent, and the whole pipeline honours context
// cancellation.
//
//	go run ./examples/faulttolerance
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"time"

	"fuiov"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		seed   = 91
		nCars  = 12
		rounds = 140
		lr     = 0.03
	)

	data := fuiov.SynthDigits(fuiov.DefaultDigits(960, seed))
	train, test := data.Split(fuiov.NewRNG(seed), 0.85)
	shards, err := fuiov.PartitionIID(train, fuiov.NewRNG(seed), nCars)
	if err != nil {
		return err
	}
	clients := make([]*fuiov.Client, nCars)
	for i := range clients {
		clients[i] = &fuiov.Client{ID: fuiov.ClientID(i), Data: shards[i]}
	}

	// -- 1. A hostile radio environment -------------------------------
	// The default spec crashes 30% of attempts; vehicle 3 is flaky on a
	// fixed period, vehicle 4 corrupts half its uploads, vehicle 5 is a
	// chronic straggler whose latency always blows the deadline.
	plan := fuiov.NewFaultPlan(seed, fuiov.FaultSpec{CrashProb: 0.3}).
		SetClient(3, fuiov.FaultSpec{FlakyEvery: 4}).
		SetClient(4, fuiov.FaultSpec{CorruptProb: 0.5}).
		SetClient(5, fuiov.FaultSpec{DelayMin: 400 * time.Millisecond, DelayMax: 900 * time.Millisecond})
	policy := &fuiov.FaultPolicy{
		ClientTimeout: 250 * time.Millisecond,
		MaxRetries:    2,
		Quorum:        0.5,
	}

	// Vehicle 1 (erased later) joins at round 2; vehicle 2 joins at
	// round 1, so its pre-join pair window has a direction gap at round
	// 0 that only the client-assisted bootstrap can fill.
	sched := fuiov.IntervalSchedule{}
	for i := 0; i < nCars; i++ {
		sched[fuiov.ClientID(i)] = fuiov.Interval{Join: 0, Leave: -1}
	}
	sched[1] = fuiov.Interval{Join: 2, Leave: -1}
	sched[2] = fuiov.Interval{Join: 1, Leave: -1}

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
		Schedule:     sched,
		Store:        store,
		Telemetry:    reg,
		Faults:       plan,
		FaultPolicy:  policy,
	})
	if err != nil {
		return err
	}
	if err := sim.RunContext(context.Background(), rounds); err != nil {
		return err
	}
	fmt.Printf("trained %d rounds under 30%% crash faults: accuracy %.3f\n",
		rounds, fuiov.AccuracyAt(model.Clone(), sim.Params(), test))

	fmt.Println("\n-- fault counters --")
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "fl.") && c.Value > 0 {
			fmt.Printf("%-24s %d\n", c.Name, c.Value)
		}
	}

	// -- 2. Quorum protects against garbage rounds --------------------
	// Demand that EVERY scheduled vehicle responds and the same fault
	// plan sinks the round: the engine refuses to aggregate, returns a
	// typed sentinel, and does not advance the round clock.
	strict := *policy
	strict.Quorum = 1
	model2 := fuiov.NewMLP(data.Dims.Size(), 24, data.Classes)
	model2.Init(fuiov.NewRNG(seed))
	sim2, err := fuiov.NewSimulation(model2, clients, fuiov.SimConfig{
		LearningRate: lr,
		Seed:         seed,
		Faults:       plan,
		FaultPolicy:  &strict,
	})
	if err != nil {
		return err
	}
	err = sim2.RunRoundContext(context.Background())
	fmt.Printf("\nquorum 100%%: errors.Is(err, ErrQuorumNotReached) = %v (round clock still %d)\n",
		errors.Is(err, fuiov.ErrQuorumNotReached), sim2.Round())

	// -- 3. Cancellation stops at the next round boundary -------------
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = sim.RunContext(ctx, 10)
	fmt.Printf("cancelled context: errors.Is(err, context.Canceled) = %v\n",
		errors.Is(err, context.Canceled))

	// -- 4. Unlearning survives offline clients -----------------------
	// Erase vehicle 1. Vehicle 2's pre-join direction gap asks for the
	// client-assisted bootstrap, but its one dispatch fails (the
	// vehicle left coverage), so the scheme falls back to the paper's
	// offline path and recovery still completes.
	u, err := fuiov.NewUnlearner(store, fuiov.UnlearnConfig{
		LearningRate:  lr,
		ClipThreshold: 0.05,
		Telemetry:     reg,
		OnlineBootstrap: func(id fuiov.ClientID, round int, params []float64) ([]float64, error) {
			return nil, fmt.Errorf("vehicle %d out of coverage", id)
		},
	})
	if err != nil {
		return err
	}
	res, err := u.UnlearnContext(context.Background(), 1)
	if err != nil {
		return err
	}
	fmt.Printf("\nunlearned vehicle 1: backtracked to round %d, recovered %d rounds\n",
		res.BacktrackRound, res.RecoveredRounds)
	fmt.Printf("recovered accuracy %.3f (no client participation needed)\n",
		fuiov.AccuracyAt(model.Clone(), res.Params, test))
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "unlearn.bootstrap") {
			fmt.Printf("%-28s %d\n", c.Name, c.Value)
		}
	}
	return nil
}
