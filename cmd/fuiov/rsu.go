package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"fuiov/internal/agent"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/metrics"
	"fuiov/internal/server"
	"fuiov/internal/unlearn"
)

// bindRSU runs the road-side unit as a real network service: the HTTP
// round coordinator of PROTOCOL.md in front of the deterministic
// engine, rounds resolving against wall-clock collection windows with
// the fault policy's quorum. By default it is a self-contained loopback
// demo — one in-process agent per vehicle uploads over real HTTP
// whenever the mobility trace puts it in coverage, and after the
// horizon a dropout vehicle is erased through POST /v1/unlearn. With
// -agents=false it only serves, for external agents that share the
// seed and scenario. README.md "Operations" documents the flags.
func bindRSU(fs *flag.FlagSet) runFunc {
	addr := fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
	vehicles := fs.Int("vehicles", 12, "fleet size")
	rounds := fs.Int("rounds", 40, "federated rounds (training horizon)")
	seed := seedFlag(fs, 7)
	lr := fs.Float64("lr", 0.12, "learning rate")
	window := fs.Duration("window", 2*time.Second, "wall-clock collection window per round")
	policy := faultPolicyFlags(fs, 0.5, 0, 2)
	encodingName := fs.String("encoding", "dense", `upload encoding: "dense" (bit-exact) or "sign" (lossy, 32x smaller)`)
	delta := fs.Float64("delta", 1e-6, "sign-compression threshold (-encoding sign)")
	agents := fs.Bool("agents", true, "drive in-process loopback agents (false = serve only)")
	streaming := fs.Bool("streaming", false, "fold uploads into sharded accumulators on arrival (flat collection memory)")
	streamShards := fs.Int("stream-shards", 0, "shard accumulator count for -streaming (0 = parallelism default)")
	uploadDelay := fs.Duration("upload-delay", 0, "artificial straggler delay before every agent upload")
	return func(ctx context.Context, e *env, _ []string) error {
		encoding, err := server.ParseEncoding(*encodingName)
		if err != nil {
			return err
		}
		if *streamShards != 0 && !*streaming {
			return errors.New("-stream-shards requires -streaming")
		}
		f, err := newFleet(e, *vehicles, *rounds, *seed)
		if err != nil {
			return err
		}
		defer f.store.Close()
		sim, err := fl.NewSimulation(f.model, f.clients, fl.Config{
			LearningRate: *lr,
			Seed:         *seed,
			Schedule:     f.trace,
			Store:        f.store,
			FaultPolicy:  policy,
			Telemetry:    e.reg,
			Streaming:    *streaming,
			StreamShards: *streamShards,
		})
		if err != nil {
			return err
		}

		// The coordinator, mounted on a plain http.Server.
		coord, err := server.New(server.Config{
			Engine:              sim,
			RoundWindow:         *window,
			MaxRounds:           *rounds,
			SkipOnQuorumFailure: true,
			Unlearn:             unlearn.Config{LearningRate: *lr, ClipThreshold: 0.05},
			Telemetry:           e.reg,
		})
		if err != nil {
			return err
		}
		defer coord.Close()
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: coord}
		// Serve returns only once the deferred Close stops it, and then
		// always with ErrServerClosed.
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		base := "http://" + ln.Addr().String()
		mode := "buffered"
		if *streaming {
			mode = fmt.Sprintf("streamed over %d shards", sim.Config().StreamShards)
		}
		e.printf("RSU coordinator serving on %s (%d vehicles, %d rounds, window %v, quorum %.0f%%, %s uploads, %s)\n",
			base, *vehicles, *rounds, *window, 100*policy.Quorum, encoding, mode)

		if !*agents {
			// Serve-only: run until the horizon is reached by external
			// agents or the process is interrupted.
			e.printf("serve-only mode: waiting for external agents (Ctrl-C to stop)\n")
			if err := coord.WaitDone(ctx); err != nil {
				return err
			}
			e.printf("training horizon reached at round %d\n", sim.Round())
			return nil
		}

		// Loopback demo: one agent per vehicle follows the coordinator
		// over real HTTP, participating only while in coverage.
		e.printf("launching %d loopback agents (participation rate %.1f%%)\n",
			*vehicles, 100*f.trace.ParticipationRate())
		var wg sync.WaitGroup
		agentErrs := make([]error, *vehicles)
		for i := range f.clients {
			a, err := agent.New(agent.Config{
				BaseURL:     base,
				Client:      f.clients[i],
				Template:    f.model.Clone(),
				Seed:        *seed,
				Schedule:    f.trace,
				Encoding:    encoding,
				Delta:       *delta,
				Policy:      policy,
				UploadDelay: *uploadDelay,
				Telemetry:   e.reg,
			})
			if err != nil {
				return err
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				agentErrs[i] = a.Run(ctx)
			}(i)
		}
		wg.Wait()
		for i, err := range agentErrs {
			if err != nil && !errors.Is(err, context.Canceled) {
				return fmt.Errorf("agent %d: %w", i, err)
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		accTrained := metrics.AccuracyAt(f.model.Clone(), sim.Params(), f.test)
		e.printf("trained over HTTP to round %d: accuracy %.3f\n", sim.Round(), accTrained)

		// Erase a dropout vehicle through the protocol itself.
		victim, _, ok := f.victim(e)
		if !ok {
			return nil
		}
		e.printf("unlearning dropout vehicle %d via POST /v1/unlearn\n", victim)
		reply, err := postUnlearn(ctx, base, victim)
		if err != nil {
			return err
		}
		accRecovered := metrics.AccuracyAt(f.model.Clone(), sim.Params(), f.test)
		e.printf("backtracked to round %d, recovered %d rounds: accuracy %.3f (trained was %.3f)\n",
			reply.BacktrackRound, reply.RecoveredRounds, accRecovered, accTrained)
		printStorage(e, f.store)
		return nil
	}
}

// unlearnReply is what the demo reads of POST /v1/unlearn's response.
type unlearnReply struct {
	BacktrackRound  int `json:"backtrack_round"`
	RecoveredRounds int `json:"recovered_rounds"`
}

// postUnlearn erases one client over the wire.
func postUnlearn(ctx context.Context, base string, id history.ClientID) (*unlearnReply, error) {
	body, err := json.Marshal(map[string]any{"clients": []history.ClientID{id}})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/unlearn", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return nil, fmt.Errorf("unlearn: %s (%s): %s", resp.Status, e.Code, e.Error)
	}
	var reply unlearnReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil, err
	}
	return &reply, nil
}
