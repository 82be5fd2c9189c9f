package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"

	"fuiov/internal/history"
	"fuiov/internal/unlearn"
	"fuiov/internal/unlearn/strategy"
)

// The hist commands inspect and operate on persisted history snapshots
// (the binary format written by Store.Save). They demonstrate that
// unlearning needs nothing but the snapshot: an RSU can persist its
// round log, restart, and still erase any vehicle. With -spill-window
// the snapshot loads into a bounded-memory store; recovery results are
// bit-identical either way.

// loadSnapshot opens the one snapshot path the hist commands take.
func loadSnapshot(e *env, path string) (*history.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	store, err := history.Load(f, e.storeOpts...)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	store.SetTelemetry(e.reg)
	return store, nil
}

func bindHistStats(*flag.FlagSet) runFunc {
	return func(_ context.Context, e *env, args []string) error {
		store, err := loadSnapshot(e, args[0])
		if err != nil {
			return err
		}
		defer store.Close()
		rep := store.Storage()
		e.printf("rounds:            %d\n", store.Rounds())
		e.printf("model dimension:   %d\n", store.Dim())
		e.printf("direction δ:       %g\n", store.Delta())
		e.printf("clients seen:      %d\n", len(store.Clients()))
		e.printf("direction bytes:   %d\n", rep.DirectionBytes)
		e.printf("model bytes:       %d (%d resident, %d spilled)\n",
			rep.ModelBytes, rep.ModelBytesResident, rep.ModelBytesSpilled)
		e.printf("full-grad bytes:   %d (hypothetical)\n", rep.FullGradientBytes)
		e.printf("gradient savings:  %.1f%%\n", 100*rep.GradientSavings)
		return nil
	}
}

func bindHistClients(*flag.FlagSet) runFunc {
	return func(_ context.Context, e *env, args []string) error {
		store, err := loadSnapshot(e, args[0])
		if err != nil {
			return err
		}
		defer store.Close()
		e.printf("%-8s %-6s %-6s\n", "client", "join", "leave")
		for _, id := range store.Clients() {
			m, err := store.MembershipOf(id)
			if err != nil {
				return err
			}
			leave := "-"
			if m.LeaveRound >= 0 {
				leave = fmt.Sprint(m.LeaveRound)
			}
			e.printf("%-8d %-6d %-6s\n", id, m.JoinRound, leave)
		}
		return nil
	}
}

// bindHistUnlearn runs backtracking + recovery from the snapshot alone
// and optionally writes the recovered parameters as a new model file
// (raw little-endian float64s). A snapshot carries only 2-bit
// directions, so strategies that need live clients or full gradients
// report what is missing.
func bindHistUnlearn(fs *flag.FlagSet) runFunc {
	client := fs.Int("client", -1, "client ID to forget (required)")
	lr := fs.Float64("lr", 0, "learning rate η used in training (required)")
	clip := fs.Float64("L", 0.05, "clip threshold")
	out := fs.String("out", "", "write recovered parameters to this file")
	strategyName := strategyFlag(fs)
	return func(ctx context.Context, e *env, args []string) error {
		if *client < 0 {
			return errors.New("-client is required")
		}
		if *lr <= 0 {
			return errors.New("-lr is required and must be positive")
		}
		store, err := loadSnapshot(e, args[0])
		if err != nil {
			return err
		}
		defer store.Close()
		res, err := strategy.Unlearn(ctx, *strategyName, strategy.Request{
			Forgotten:    []history.ClientID{history.ClientID(*client)},
			Store:        store,
			LearningRate: *lr,
			Unlearn:      unlearn.Config{ClipThreshold: *clip},
			Telemetry:    e.reg,
		})
		if err != nil {
			switch {
			case errors.Is(err, history.ErrUnknownClient):
				return fmt.Errorf("%w\n  snapshot knows clients %v — run `fuiov hist clients` to inspect them", err, store.Clients())
			case errors.Is(err, strategy.ErrMissingInput):
				return fmt.Errorf("%w\n  a snapshot holds only 2-bit directions; strategy %q needs inputs a live federation provides", err, *strategyName)
			}
			return err
		}
		e.printf("forgot client %d with strategy %q: backtracked to round %d, recovered %d rounds\n",
			*client, *strategyName, res.BacktrackRound, res.RecoveredRounds)
		if res.Paper != nil {
			e.printf("bootstrapped clients: %d, raw-direction fallbacks: %d, pair refreshes: %d\n",
				res.Paper.BootstrappedClients, res.Paper.DegenerateFallbacks, res.Paper.PairRefreshes)
		}
		if *out != "" {
			buf := make([]byte, 8*len(res.Params))
			for i, v := range res.Params {
				binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
			}
			if err := os.WriteFile(*out, buf, 0o644); err != nil {
				return err
			}
			e.printf("recovered parameters (%d float64s) written to %s\n", len(res.Params), *out)
		}
		return nil
	}
}
