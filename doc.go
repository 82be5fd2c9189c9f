// Package fuiov is a Go implementation of "Federated Unlearning in the
// Internet of Vehicles" (Li, Feng, Wang, Wu, Düdder — DSN 2024): a
// federated-unlearning scheme in which the server (an IoV road-side
// unit) erases a vehicle's contributions by backtracking the global
// model to the vehicle's join round and then recovers the model
// server-side — without contacting any client — using only stored
// historical models and 2-bit gradient *directions*.
//
// The package is a facade over the implementation packages, cut to
// what the programs under examples/ and the scenario harness
// (internal/simtest) import; TestFacadeNamesHaveCallers keeps it
// there. Everything else — the RSU coordinator and vehicle agents
// (PROTOCOL.md), the IoV mobility model, the experiment registry —
// lives under internal/ and is reached through the fuiov command
// (cmd/fuiov).
//
//   - Training: build a federation of Clients over a Dataset, run a
//     Simulation with FedAvg aggregation, and record history in a
//     Store (models + compressed gradient directions + membership).
//   - Unlearning: an Unlearner backtracks to the forgotten vehicle's
//     join round (eq. 5) and recovers the remaining rounds with
//     Cauchy-mean-value-theorem gradient estimation (eq. 6), compact
//     L-BFGS Hessian-vector products (Algorithm 2), and gradient
//     clipping (eq. 7). Unlearn dispatches to any registered strategy
//     by name, the paper's baselines included.
//   - Checking: backdoor poisoning, upload detectors and the
//     forgetting-verification suite, for the poisoning-recovery
//     scenario.
//
// A minimal end-to-end flow:
//
//	data := fuiov.SynthDigits(fuiov.DefaultDigits(6000, seed))
//	train, test := data.Split(fuiov.NewRNG(seed), 0.85)
//	shards, _ := fuiov.PartitionIID(train, fuiov.NewRNG(seed), 10)
//	clients := make([]*fuiov.Client, len(shards))
//	for i, s := range shards {
//		clients[i] = &fuiov.Client{ID: fuiov.ClientID(i), Data: s}
//	}
//	model := fuiov.NewMLP(data.Dims.Size(), 24, data.Classes)
//	model.Init(fuiov.NewRNG(seed))
//	store, _ := fuiov.NewStore(model.NumParams(), 1e-6)
//	sim, _ := fuiov.NewSimulation(model, clients, fuiov.SimConfig{
//		LearningRate: 0.03, Seed: seed, Store: store,
//	})
//	_ = sim.RunContext(ctx, 100)
//
//	u, _ := fuiov.NewUnlearner(store, fuiov.UnlearnConfig{LearningRate: 0.03})
//	res, _ := u.UnlearnContext(ctx, 3) // erase vehicle 3
//	// res.Params is the recovered global model.
//
// # Observability
//
// Every subsystem reports into an optional Telemetry registry
// (internal/telemetry): the simulation's per-phase round timings, the
// history store's byte counters and live compression-saving gauge,
// the unlearner's backtrack depth, recovery timings and clip
// activations. Attach one registry to everything:
//
//	reg := fuiov.NewTelemetry()
//	store.SetTelemetry(reg)
//	sim, _ := fuiov.NewSimulation(model, clients, fuiov.SimConfig{
//		LearningRate: 0.03, Seed: seed, Store: store, Telemetry: reg,
//	})
//	...
//	reg.Snapshot().WriteText(os.Stdout) // final counters/gauges/timers
//
// A nil registry is the default and disables all instrumentation at
// negligible cost; enabling it never changes numerical results. Every
// fuiov command exposes it via -metrics (json|text) and -profile;
// examples/telemetry reads the paper's ~97% storage-saving claim
// straight off the live gauge.
//
// See examples/ for complete programs and EXPERIMENTS.md for the
// reproduction of every table and figure in the paper.
package fuiov
