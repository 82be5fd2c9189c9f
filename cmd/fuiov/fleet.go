package main

import (
	"fuiov/internal/dataset"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/iov"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
)

// fleet is the IoV scenario the iov and rsu commands share: vehicles
// on a 6 km open road past one RSU with 2 km coverage, each carrying a
// private traffic-sign shard, and the engine pieces the RSU runs —
// the TrafficCNN and the history store. Everything downstream of the
// seed is deterministic, so external agents rebuild the identical
// fleet from the same flags.
type fleet struct {
	trace   *iov.Trace
	clients []*fl.Client
	test    *dataset.Dataset
	model   *nn.Network
	store   *history.Store // the caller closes it
}

func newFleet(e *env, vehicles, rounds int, seed uint64) (*fleet, error) {
	trace, err := iov.Simulate(iov.Config{
		SegmentLength: 6000,
		RSU:           iov.RSU{Pos: 3000, Radius: 2000},
		NumVehicles:   vehicles,
		MinSpeed:      2,
		MaxSpeed:      8,
		RoundDuration: 15,
		DropoutProb:   0.02,
		OpenRoad:      true,
		Seed:          seed,
	}, rounds)
	if err != nil {
		return nil, err
	}
	data := dataset.SynthTraffic(dataset.DefaultTraffic(80*vehicles, seed))
	train, test := data.Split(rng.New(seed), 0.85)
	shards, err := dataset.PartitionIID(train, rng.New(seed), vehicles)
	if err != nil {
		return nil, err
	}
	clients := make([]*fl.Client, vehicles)
	for i := range clients {
		clients[i] = &fl.Client{ID: history.ClientID(i), Data: shards[i]}
	}
	model := nn.NewTrafficCNN(data.Dims.H, data.Classes)
	model.Init(rng.New(seed))
	store, err := history.NewStore(model.NumParams(), 1e-6, e.storeOpts...)
	if err != nil {
		return nil, err
	}
	store.SetTelemetry(e.reg)
	return &fleet{trace: trace, clients: clients, test: test, model: model, store: store}, nil
}

// victim picks the vehicle the demos erase: the first dropout (in
// coverage early, gone for the last third of the horizon) the server
// actually heard from — under faults or a short window a dropout may
// never have uploaded, and then the store has nothing of it to erase.
func (f *fleet) victim(e *env) (id history.ClientID, join int, ok bool) {
	for _, id := range f.trace.Dropouts(2 * f.trace.Rounds() / 3) {
		if join, err := f.store.JoinRound(id); err == nil {
			return id, join, true
		}
		e.printf("dropout vehicle %d never uploaded successfully; nothing to unlearn for it\n", id)
	}
	e.printf("no dropout vehicle ever reached the server; nothing to unlearn\n")
	return 0, 0, false
}
