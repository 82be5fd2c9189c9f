package main

import (
	"context"
	"fmt"
	"time"

	"fuiov/internal/dataset"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
	"fuiov/internal/telemetry"
	"fuiov/internal/unlearn"
)

// engine is the system under test minus the network: the data, model,
// store and round engine an episode builds from the workload seed. The
// in-process twin builds the same thing and feeds it the same inputs.
type engine struct {
	spec     spec
	seed     uint64
	template *nn.Network
	dim      int
	clients  []*fl.Client
	// test is the held-out split (fleet_cnn only).
	test *dataset.Dataset
	// fleet is the synthetic vehicles (nil on fleet_cnn).
	fleet      []*synthVehicle
	victim     history.ClientID
	schedule   fl.Schedule
	store      *history.Store
	sim        *fl.Simulation
	unlearnCfg unlearn.Config
}

// buildEngine derives everything from (spec, seed). streaming picks
// the aggregation path — the sign-stream twin asks for the barrier
// path over the same decoded gradients.
func buildEngine(s spec, seed uint64, streaming bool, reg *telemetry.Registry) (*engine, error) {
	e := &engine{spec: s, seed: seed}
	e.victim = history.ClientID(rng.New(rng.Mix(seed, 0x71c7)).IntN(s.vehicles))
	join, leave := s.joinRound(), -1
	if s.kind == overlap {
		// The victim has driven off by the time the fleet goes live.
		leave = s.rounds
	}
	victim := e.victim
	e.schedule = fl.FuncSchedule(func(id history.ClientID, t int) bool {
		return id != victim || (t >= join && (leave < 0 || t < leave))
	})

	e.clients = make([]*fl.Client, s.vehicles)
	if s.kind == fleetCNN {
		data := dataset.SynthTraffic(dataset.DefaultTraffic(80*s.vehicles, seed))
		train, test := data.Split(rng.New(seed), 0.85)
		shards, err := dataset.PartitionIID(train, rng.New(seed), s.vehicles)
		if err != nil {
			return nil, err
		}
		for i := range e.clients {
			e.clients[i] = &fl.Client{ID: history.ClientID(i), Data: shards[i]}
		}
		e.test = test
		e.template = nn.NewTrafficCNN(data.Dims.H, data.Classes)
	} else {
		for i := range e.clients {
			// Server-side only the IDs matter; the vehicles own the data.
			e.clients[i] = &fl.Client{ID: history.ClientID(i)}
		}
		e.template = nn.NewMLP(256, s.hidden, 10)
	}
	e.template.Init(rng.New(seed))
	e.dim = e.template.NumParams()

	if s.kind != fleetCNN {
		var err error
		if e.fleet, err = newSynthFleet(seed, s.vehicles, e.dim, s.rounds, s.encoding); err != nil {
			return nil, err
		}
	}

	var err error
	if e.store, err = history.NewStore(e.dim, signDelta); err != nil {
		return nil, err
	}
	e.store.SetTelemetry(reg)
	e.sim, err = fl.NewSimulation(e.template, e.clients, fl.Config{
		LearningRate: s.lr,
		Seed:         seed,
		Schedule:     e.schedule,
		Store:        e.store,
		Streaming:    streaming,
		Telemetry:    reg,
	})
	if err != nil {
		return nil, err
	}
	e.unlearnCfg = unlearn.Config{LearningRate: s.lr, ClipThreshold: s.clip}
	return e, nil
}

// submitSynthetic commits rounds [from, to) in-process from the
// fleet's own frames, decoded by the server's reader: the twin of the
// HTTP train phase, and unlearn_overlap's preload.
func (e *engine) submitSynthetic(from, to int) error {
	for t := from; t < to; t++ {
		grads := make(map[history.ClientID][]float64, len(e.fleet))
		weights := make(map[history.ClientID]float64, len(e.fleet))
		for _, v := range e.fleet {
			if !e.schedule.Participates(v.id, t) {
				continue
			}
			g, err := v.decode(t, e.dim)
			if err != nil {
				return err
			}
			grads[v.id], weights[v.id] = g, v.weight
		}
		if err := e.sim.SubmitRound(grads, weights, len(grads)); err != nil {
			return fmt.Errorf("twin round %d: %w", t, err)
		}
	}
	return nil
}

// twin is the in-process reference a run computes once: the model
// after R rounds and the paper scheme's recovery of it, from the same
// inputs the HTTP episodes see. Its engine, with the full history in
// its store, is what the traced run's replays read.
type twin struct {
	*engine
	final     []float64
	unlearned *unlearn.Result
	// unlearnTime is the in-process Unlearner's wall time: what
	// POST /v1/unlearn costs without server, queue or contention.
	unlearnTime time.Duration
}

// computeTwin replays the workload without the network. Dense
// workloads must match it bit for bit; the sign-stream workload folds
// in arrival order across shards, so it matches the barrier twin only
// to rounding. unlearn_overlap is checked against no twin — where its
// commit lands depends on timing — and builds one only for the traced
// run's replays.
func computeTwin(ctx context.Context, s spec, seed uint64, replays bool) (*twin, error) {
	if s.kind == overlap && !replays {
		return nil, nil
	}
	e, err := buildEngine(s, seed, false, nil)
	if err != nil {
		return nil, err
	}
	if s.kind == fleetCNN {
		err = e.sim.RunContext(ctx, s.rounds)
	} else {
		err = e.submitSynthetic(0, s.rounds)
	}
	if err != nil {
		return nil, err
	}
	u, err := unlearn.New(e.store, e.unlearnCfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := u.UnlearnContext(ctx, e.victim)
	if err != nil {
		return nil, err
	}
	tw := &twin{engine: e, final: e.sim.Params(), unlearned: res, unlearnTime: time.Since(start)}
	if !replays {
		// Only the expected outputs are needed: drop the history so it
		// does not sit in the heap the episodes are measured in.
		e.store.Close()
		tw.engine = nil
	}
	return tw, nil
}
