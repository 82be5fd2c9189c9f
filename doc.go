// Package fuiov is a Go implementation of "Federated Unlearning in the
// Internet of Vehicles" (Li, Feng, Wang, Wu, Düdder — DSN 2024): a
// federated-unlearning scheme in which the server (an IoV road-side
// unit) erases a vehicle's contributions by backtracking the global
// model to the vehicle's join round and then recovers the model
// server-side — without contacting any client — using only stored
// historical models and 2-bit gradient *directions*.
//
// The package is a facade over the implementation packages:
//
//   - Training: build a federation of Clients over a Dataset, run a
//     Simulation with FedAvg aggregation, and record history in a
//     Store (models + compressed gradient directions + membership).
//   - Unlearning: an Unlearner backtracks to the forgotten vehicle's
//     join round (eq. 5) and recovers the remaining rounds with
//     Cauchy-mean-value-theorem gradient estimation (eq. 6), compact
//     L-BFGS Hessian-vector products (Algorithm 2), and gradient
//     clipping (eq. 7).
//   - Attacks: label-flip and backdoor poisoning plus attack-success
//     -rate measurement, for the poisoning-recovery scenario.
//   - Baselines: Retraining, FedRecover and FedRecovery, the methods
//     the paper compares against.
//   - IoV: a highway mobility model producing connectivity-driven
//     join/leave/dropout schedules.
//   - Serving: an RSUCoordinator exposes the engine over HTTP
//     (PROTOCOL.md) with wall-clock collection windows and quorum
//     enforcement; VehicleAgents follow its round clock, computing
//     gradients locally and uploading them dense (bit-exact) or
//     sign-compressed. Rounds served over the wire commit through the
//     engine's own path, so they are bit-identical to in-process
//     rounds — see `fuiov rsu` (cmd/fuiov) and ExampleNewRSUCoordinator.
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
//	model := fuiov.NewDigitsCNN(12, 10)
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
// (internal/telemetry): the simulation's per-phase round timings
// (compute/record/aggregate), the history store's byte counters and
// live compression-saving gauge, the unlearner's backtrack depth,
// recovery timings and clip activations, and the baselines' cost
// counters. Attach one registry to everything:
//
//	reg := fuiov.NewTelemetry()
//	store.SetTelemetry(reg)
//	sim, _ := fuiov.NewSimulation(model, clients, fuiov.SimConfig{
//		LearningRate: 0.03, Seed: seed, Store: store, Telemetry: reg,
//	})
//	reg.SetObserver(fuiov.NewTextTelemetryObserver(os.Stderr)) // per-round stream
//	...
//	u, _ := fuiov.NewUnlearner(store, fuiov.UnlearnConfig{
//		LearningRate: 0.03, Telemetry: reg, // recovery reports too
//	})
//	...
//	reg.Snapshot().WriteText(os.Stdout) // final counters/gauges/timers
//
// A nil registry is the default and disables all instrumentation at
// negligible cost (<5% of a training round, verified by benchmark);
// enabling it never changes numerical results. Every fuiov command
// exposes it via -metrics (json|text) and -profile (pprof CPU+heap);
// examples/telemetry reads the paper's ~97% storage-saving claim
// straight off the live gauges.
//
// See examples/ for complete programs and EXPERIMENTS.md for the
// reproduction of every table and figure in the paper.
package fuiov
