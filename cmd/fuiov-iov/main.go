// Command fuiov-iov demonstrates the full Internet-of-Vehicles
// scenario the paper targets: vehicles move along a highway and join
// federated learning only while inside RSU coverage; after training,
// the RSU erases a dropped-out vehicle with backtracking + server-side
// recovery — no client participation needed.
//
// With -faults the radio layer also injects realistic client faults
// derived from the same mobility trace — out-of-coverage vehicles
// crash, in-coverage vehicles answer with distance-dependent latency —
// and the round engine copes via per-client deadlines, bounded retries
// and quorum-based degradation.
//
// Usage:
//
//	fuiov-iov [-vehicles N] [-rounds T] [-seed S] [-metrics json|text] [-profile prefix]
//	          [-faults] [-quorum F] [-client-timeout D] [-retries K]
//	          [-spill-window W [-spill-dir d]] [-strategy name]
//
// -strategy selects the unlearning algorithm by registered name
// (fuiov.StrategyNames lists them; default "paper"). Strategies that
// replay full gradient history are not satisfiable here — the RSU
// stores only 2-bit directions — but client-side strategies (retrain,
// pga, not) are.
//
// -spill-window W bounds the RSU's resident snapshot memory to the
// newest W rounds; older models live in an on-disk scratch file and
// unlearning reads them back transparently (bit-identical results).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"fuiov"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fuiov-iov:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fuiov-iov", flag.ContinueOnError)
	vehicles := fs.Int("vehicles", 20, "fleet size")
	rounds := fs.Int("rounds", 120, "federated rounds")
	seed := fs.Uint64("seed", 7, "root random seed")
	metricsMode := fs.String("metrics", "", `stream per-round metrics to stderr: "json" or "text"`)
	profile := fs.String("profile", "", "write CPU/heap pprof profiles with this path prefix")
	useFaults := fs.Bool("faults", false, "inject trace-derived client faults (coverage crashes, distance latency)")
	quorum := fs.Float64("quorum", 0.5, "minimum responding fraction per round under -faults")
	clientTimeout := fs.Duration("client-timeout", 150*time.Millisecond, "per-attempt upload deadline under -faults")
	retries := fs.Int("retries", 1, "extra attempts per client per round under -faults")
	spillWindow := fs.Int("spill-window", 0, "keep only this many model snapshots in RAM, spilling older rounds to disk (0 = all in RAM)")
	spillDir := fs.String("spill-dir", "", "directory for the snapshot spill file (default: OS temp dir; needs -spill-window)")
	strategyName := fs.String("strategy", "paper", fmt.Sprintf("unlearning strategy (one of %v)", fuiov.StrategyNames()))
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spillDir != "" && *spillWindow <= 0 {
		return fmt.Errorf("-spill-dir requires -spill-window > 0")
	}
	var reg *fuiov.Telemetry
	switch *metricsMode {
	case "":
	case "json":
		reg = fuiov.NewTelemetry()
		reg.SetObserver(fuiov.NewJSONTelemetryObserver(os.Stderr))
	case "text":
		reg = fuiov.NewTelemetry()
		reg.SetObserver(fuiov.NewTextTelemetryObserver(os.Stderr))
	default:
		return fmt.Errorf("unknown -metrics mode %q (want json or text)", *metricsMode)
	}
	if *profile != "" {
		stop, err := fuiov.StartProfiles(*profile)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "fuiov-iov: profile:", err)
			}
		}()
	}
	defer func() {
		if reg != nil {
			fmt.Fprintln(os.Stderr, "== metrics snapshot ==")
			if *metricsMode == "json" {
				reg.Snapshot().WriteJSON(os.Stderr)
			} else {
				reg.Snapshot().WriteText(os.Stderr)
			}
		}
	}()

	// 1. Mobility: a 6 km ring road, one RSU with 1.2 km coverage.
	trace, err := fuiov.SimulateIoV(fuiov.IoVConfig{
		SegmentLength: 6000,
		RSU:           fuiov.RSU{Pos: 3000, Radius: 2000},
		NumVehicles:   *vehicles,
		MinSpeed:      2,
		MaxSpeed:      8,
		RoundDuration: 15,
		DropoutProb:   0.02,
		OpenRoad:      true,
		Seed:          *seed,
	}, *rounds)
	if err != nil {
		return err
	}
	fmt.Printf("IoV scenario: %d vehicles, %d rounds, participation rate %.1f%%\n",
		*vehicles, *rounds, 100*trace.ParticipationRate())

	// 2. Data: every vehicle carries a private traffic-sign shard.
	data := fuiov.SynthTraffic(fuiov.DefaultTraffic(80*(*vehicles), *seed))
	train, test := data.Split(fuiov.NewRNG(*seed), 0.85)
	shards, err := fuiov.PartitionIID(train, fuiov.NewRNG(*seed), *vehicles)
	if err != nil {
		return err
	}
	clients := make([]*fuiov.Client, *vehicles)
	for i := range clients {
		clients[i] = &fuiov.Client{ID: fuiov.ClientID(i), Data: shards[i]}
	}

	// 3. Federated training driven by connectivity.
	const lr = 0.12
	model := fuiov.NewTrafficCNN(data.Dims.H, data.Classes)
	model.Init(fuiov.NewRNG(*seed))
	var storeOpts []fuiov.StoreOption
	if *spillWindow > 0 {
		storeOpts = append(storeOpts, fuiov.WithSpill(*spillDir, *spillWindow))
	}
	store, err := fuiov.NewStore(model.NumParams(), 1e-6, storeOpts...)
	if err != nil {
		return err
	}
	defer store.Close()
	store.SetTelemetry(reg)
	simCfg := fuiov.SimConfig{
		LearningRate: lr,
		Seed:         *seed,
		Schedule:     trace,
		Store:        store,
		Telemetry:    reg,
	}
	if *useFaults {
		// The same mobility trace that drives the schedule also drives
		// the fault model: 20 ms base latency plus 80 ms per km of
		// distance to the RSU, so vehicles near the coverage edge
		// become stragglers the deadline cuts off.
		simCfg.Faults = trace.Faults(20*time.Millisecond, 80*time.Millisecond)
		simCfg.FaultPolicy = &fuiov.FaultPolicy{
			ClientTimeout: *clientTimeout,
			MaxRetries:    *retries,
			Quorum:        *quorum,
		}
		fmt.Printf("fault injection on: deadline %v, %d retries, quorum %.0f%%\n",
			*clientTimeout, *retries, 100**quorum)
	}
	sim, err := fuiov.NewSimulation(model, clients, simCfg)
	if err != nil {
		return err
	}
	// Drive rounds one at a time: trace-derived faults are a pure
	// function of (vehicle, round) — retrying a round that failed
	// quorum replays the identical geometry — so skip doomed rounds
	// and pick the fleet back up at the next sampling instead.
	skipped := 0
	for r := 0; r < *rounds; r++ {
		err := sim.RunRoundContext(context.Background())
		if err == nil {
			continue
		}
		if !errors.Is(err, fuiov.ErrQuorumNotReached) {
			return err
		}
		if err := sim.SkipRound(); err != nil {
			return err
		}
		skipped++
	}
	if skipped > 0 {
		fmt.Printf("%d rounds skipped: every in-range vehicle was past the deadline\n", skipped)
	}
	accTrained := fuiov.AccuracyAt(model.Clone(), sim.Params(), test)
	fmt.Printf("trained global model accuracy: %.3f\n", accTrained)

	// 4. Pick a dropout vehicle (connected early, gone for the last
	// third of the horizon) and erase it.
	dropouts := trace.Dropouts(2 * *rounds / 3)
	if len(dropouts) == 0 {
		fmt.Println("no dropout vehicles in this scenario; nothing to unlearn")
		return nil
	}
	// Under fault injection a dropout vehicle may never have uploaded
	// successfully — then the store has nothing of it to erase. Pick
	// the first dropout the server actually heard from.
	victim := fuiov.ClientID(-1)
	join := -1
	for _, id := range dropouts {
		j, err := store.JoinRound(id)
		if err == nil {
			victim, join = id, j
			break
		}
		if !errors.Is(err, fuiov.ErrUnknownClient) {
			return err
		}
		fmt.Printf("dropout vehicle %d never uploaded successfully; nothing to unlearn for it\n", id)
	}
	if join < 0 {
		fmt.Println("no dropout vehicle ever reached the server; nothing to unlearn")
		return nil
	}
	fmt.Printf("unlearning dropout vehicle %d with strategy %q (joined round %d, last seen round %d)\n",
		victim, *strategyName, join, trace.LastSeen(victim))

	res, err := fuiov.Unlearn(context.Background(), *strategyName, fuiov.UnlearnRequest{
		Forgotten:    []fuiov.ClientID{victim},
		Store:        store,
		Template:     model,
		Clients:      clients,
		FinalParams:  sim.Params(),
		LearningRate: lr,
		Rounds:       sim.Round(),
		Seed:         *seed,
		Unlearn:      fuiov.UnlearnConfig{ClipThreshold: 0.05},
		Telemetry:    reg,
	})
	if err != nil {
		return err
	}
	accUnlearned := fuiov.AccuracyAt(model.Clone(), res.Unlearned, test)
	accRecovered := fuiov.AccuracyAt(model.Clone(), res.Params, test)
	if res.BacktrackRound >= 0 {
		fmt.Printf("backtracked to round %d: accuracy %.3f\n", res.BacktrackRound, accUnlearned)
	} else {
		fmt.Printf("erased without backtracking: accuracy %.3f\n", accUnlearned)
	}
	fmt.Printf("recovered over %d rounds:  accuracy %.3f (trained was %.3f)\n",
		res.RecoveredRounds, accRecovered, accTrained)
	if res.Paper != nil {
		fmt.Printf("recovery used no client communication; %d client-rounds fell back to raw directions\n",
			res.Paper.DegenerateFallbacks)
	} else {
		fmt.Printf("strategy %q demanded %d client gradient computations during unlearning\n",
			*strategyName, res.ClientWork)
	}
	rep := store.Storage()
	fmt.Printf("server storage: %d B directions vs %d B full gradients (%.1f%% saved)\n",
		rep.DirectionBytes, rep.FullGradientBytes, 100*rep.GradientSavings)
	return nil
}
