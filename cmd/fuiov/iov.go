package main

import (
	"context"
	"errors"
	"flag"
	"time"

	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/metrics"
	"fuiov/internal/unlearn"
	"fuiov/internal/unlearn/strategy"
)

// bindIoV is the scenario the paper targets: vehicles join federated
// learning only while inside RSU coverage; after training, the RSU
// erases a dropped-out vehicle with backtracking + server-side
// recovery — no client participation needed. -faults derives client
// faults from the same mobility trace and arms the fault policy. The
// simulated RSU stores only 2-bit directions but holds every vehicle's
// shard in-process, so -strategy can name client-side strategies
// (retrain, pga, not) but none that replays full gradients; the
// networked RSU (fuiov rsu) runs only the paper's scheme.
func bindIoV(fs *flag.FlagSet) runFunc {
	vehicles := fs.Int("vehicles", 20, "fleet size")
	rounds := fs.Int("rounds", 120, "federated rounds")
	seed := seedFlag(fs, 7)
	useFaults := fs.Bool("faults", false, "inject trace-derived client faults (coverage crashes, distance latency); arms -quorum, -client-timeout and -retries")
	policy := faultPolicyFlags(fs, 0.5, 150*time.Millisecond, 1)
	strategyName := strategyFlag(fs)
	return func(ctx context.Context, e *env, _ []string) error {
		f, err := newFleet(e, *vehicles, *rounds, *seed)
		if err != nil {
			return err
		}
		defer f.store.Close()
		e.printf("IoV scenario: %d vehicles, %d rounds, participation rate %.1f%%\n",
			*vehicles, *rounds, 100*f.trace.ParticipationRate())

		// Federated training driven by connectivity.
		const lr = 0.12
		simCfg := fl.Config{
			LearningRate: lr,
			Seed:         *seed,
			Schedule:     f.trace,
			Store:        f.store,
			Telemetry:    e.reg,
		}
		if *useFaults {
			// The same mobility trace that drives the schedule also drives
			// the fault model: 20 ms base latency plus 80 ms per km of
			// distance to the RSU, so vehicles near the coverage edge
			// become stragglers the deadline cuts off.
			simCfg.Faults = f.trace.Faults(20*time.Millisecond, 80*time.Millisecond)
			simCfg.FaultPolicy = policy
			e.printf("fault injection on: deadline %v, %d retries, quorum %.0f%%\n",
				policy.ClientTimeout, policy.MaxRetries, 100*policy.Quorum)
		}
		sim, err := fl.NewSimulation(f.model, f.clients, simCfg)
		if err != nil {
			return err
		}
		// Drive rounds one at a time: trace-derived faults are a pure
		// function of (vehicle, round) — retrying a round that failed
		// quorum replays the identical geometry — so skip doomed rounds
		// and pick the fleet back up at the next sampling instead.
		skipped := 0
		for r := 0; r < *rounds; r++ {
			err := sim.RunRoundContext(ctx)
			if err == nil {
				continue
			}
			if !errors.Is(err, fl.ErrQuorumNotReached) {
				return err
			}
			if err := sim.SkipRound(); err != nil {
				return err
			}
			skipped++
		}
		if skipped > 0 {
			e.printf("%d rounds skipped: every in-range vehicle was past the deadline\n", skipped)
		}
		accTrained := metrics.AccuracyAt(f.model.Clone(), sim.Params(), f.test)
		e.printf("trained global model accuracy: %.3f\n", accTrained)

		victim, join, ok := f.victim(e)
		if !ok {
			return nil
		}
		e.printf("unlearning dropout vehicle %d with strategy %q (joined round %d, last seen round %d)\n",
			victim, *strategyName, join, f.trace.LastSeen(victim))
		res, err := strategy.Unlearn(ctx, *strategyName, strategy.Request{
			Forgotten:    []history.ClientID{victim},
			Store:        f.store,
			Template:     f.model,
			Clients:      f.clients,
			FinalParams:  sim.Params(),
			LearningRate: lr,
			Rounds:       sim.Round(),
			Seed:         *seed,
			Unlearn:      unlearn.Config{ClipThreshold: 0.05},
			Telemetry:    e.reg,
		})
		if err != nil {
			return err
		}
		accUnlearned := metrics.AccuracyAt(f.model.Clone(), res.Unlearned, f.test)
		accRecovered := metrics.AccuracyAt(f.model.Clone(), res.Params, f.test)
		if res.BacktrackRound >= 0 {
			e.printf("backtracked to round %d: accuracy %.3f\n", res.BacktrackRound, accUnlearned)
		} else {
			e.printf("erased without backtracking: accuracy %.3f\n", accUnlearned)
		}
		e.printf("recovered over %d rounds:  accuracy %.3f (trained was %.3f)\n",
			res.RecoveredRounds, accRecovered, accTrained)
		if res.Paper != nil {
			e.printf("recovery used no client communication; %d client-rounds fell back to raw directions\n",
				res.Paper.DegenerateFallbacks)
		} else {
			e.printf("strategy %q demanded %d client gradient computations during unlearning\n",
				*strategyName, res.ClientWork)
		}
		printStorage(e, f.store)
		return nil
	}
}

// printStorage reports the store's direction-vs-full-gradient footprint.
func printStorage(e *env, store *history.Store) {
	rep := store.Storage()
	e.printf("server storage: %d B directions vs %d B full gradients (%.1f%% saved)\n",
		rep.DirectionBytes, rep.FullGradientBytes, 100*rep.GradientSavings)
}
