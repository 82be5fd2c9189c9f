package fuiov

import (
	"context"
	"io"
	"time"

	"fuiov/internal/agent"
	"fuiov/internal/attack"
	"fuiov/internal/dataset"
	"fuiov/internal/detect"
	"fuiov/internal/faults"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/iov"
	"fuiov/internal/metrics"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
	"fuiov/internal/server"
	"fuiov/internal/telemetry"
	"fuiov/internal/unlearn"
	"fuiov/internal/unlearn/strategy"
	"fuiov/internal/verify"
)

// ---- Randomness ----

// RNG is the deterministic random source used throughout the library.
type RNG = rng.RNG

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// ---- Models ----

// Network is a trainable neural network with flat parameter vectors.
type Network = nn.Network

// Dims describes a sample shape (channels, height, width).
type Dims = nn.Dims

// NewDigitsCNN returns the paper's MNIST-style model (2 conv + 2 FC).
func NewDigitsCNN(img, classes int) *Network { return nn.NewDigitsCNN(img, classes) }

// NewTrafficCNN returns the paper's GTSRB-style model (2 conv + 1 FC).
func NewTrafficCNN(img, classes int) *Network { return nn.NewTrafficCNN(img, classes) }

// NewMLP returns a fully connected ReLU network with the given layer
// sizes.
func NewMLP(sizes ...int) *Network { return nn.NewMLP(sizes...) }

// ---- Datasets ----

// Dataset is an in-memory labelled image set.
type Dataset = dataset.Dataset

// SynthConfig parameterises the synthetic dataset generators.
type SynthConfig = dataset.SynthConfig

// DefaultDigits returns the MNIST stand-in configuration.
func DefaultDigits(samples int, seed uint64) SynthConfig {
	return dataset.DefaultDigits(samples, seed)
}

// DefaultTraffic returns the GTSRB stand-in configuration.
func DefaultTraffic(samples int, seed uint64) SynthConfig {
	return dataset.DefaultTraffic(samples, seed)
}

// SynthDigits generates the MNIST stand-in dataset.
func SynthDigits(cfg SynthConfig) *Dataset { return dataset.SynthDigits(cfg) }

// SynthTraffic generates the GTSRB stand-in dataset.
func SynthTraffic(cfg SynthConfig) *Dataset { return dataset.SynthTraffic(cfg) }

// PartitionIID splits a dataset into n near-equal shuffled shards.
func PartitionIID(d *Dataset, r *RNG, n int) ([]*Dataset, error) {
	return dataset.PartitionIID(d, r, n)
}

// PartitionDirichlet splits a dataset into n label-skewed shards with
// Dirichlet concentration alpha.
func PartitionDirichlet(d *Dataset, r *RNG, n int, alpha float64) ([]*Dataset, error) {
	return dataset.PartitionDirichlet(d, r, n, alpha)
}

// ---- Federated learning ----

// ClientID identifies a vehicle in the federation.
type ClientID = history.ClientID

// Client is one vehicle with a private data shard.
type Client = fl.Client

// Simulation runs synchronous federated rounds.
type Simulation = fl.Simulation

// SimConfig parameterises a Simulation.
type SimConfig = fl.Config

// Schedule decides per-round client participation.
type Schedule = fl.Schedule

// Interval is a [Join, Leave) participation window.
type Interval = fl.Interval

// IntervalSchedule maps clients to participation intervals.
type IntervalSchedule = fl.IntervalSchedule

// FuncSchedule adapts a function to the Schedule interface.
type FuncSchedule = fl.FuncSchedule

// Aggregator combines client gradients into a global update.
type Aggregator = fl.Aggregator

// Recorder observes each round's model, gradients and weights.
type Recorder = fl.Recorder

// FedAvg is the paper's dataset-size-weighted aggregation rule.
type FedAvg = fl.FedAvg

// Median is the Byzantine-robust coordinate-wise median rule.
type Median = fl.Median

// TrimmedMean drops extremes per coordinate before averaging.
type TrimmedMean = fl.TrimmedMean

// Krum selects the gradient closest to its nearest neighbours.
type Krum = fl.Krum

// SignAggregator is the RSA-style sign-sum rule (§III-C of the paper).
type SignAggregator = fl.SignAggregator

// NewSimulation creates a federated simulation starting from the
// template's current parameters.
func NewSimulation(template *Network, clients []*Client, cfg SimConfig) (*Simulation, error) {
	return fl.NewSimulation(template, clients, cfg)
}

// StreamAggregator receives a round's uploads on arrival and reduces
// them at commit: sharded accumulators under SimConfig.Streaming, a
// buffered cohort otherwise (DESIGN.md §13, §15).
type StreamAggregator = fl.StreamAggregator

// ShardedFedAvg is the streaming weighted-mean aggregator: P hashed
// shard accumulators, fixed-order tree resolve.
type ShardedFedAvg = fl.ShardedFedAvg

// NewShardedFedAvg creates a streaming accumulator with dim parameters
// and the given shard count.
func NewShardedFedAvg(dim, shards int) (*ShardedFedAvg, error) {
	return fl.NewShardedFedAvg(dim, shards)
}

// ShardOf reports the shard an upload from id folds into.
func ShardOf(id ClientID, shards int) int { return fl.ShardOf(id, shards) }

// Sampler draws seeded K-of-N round cohorts without per-client maps.
type Sampler = fl.Sampler

// RoundStream is one open round of the engine, in either mode: Add
// uploads as they arrive, commit with Simulation.SubmitRoundStream
// (the networked coordinator's handle; DESIGN.md §13).
type RoundStream = fl.RoundStream

// ErrNotStreamable reports an aggregator that cannot stream (robust
// rules need the full cohort retained).
var ErrNotStreamable = fl.ErrNotStreamable

// ErrDuplicateUpload reports a second upload from one client in one
// round.
var ErrDuplicateUpload = fl.ErrDuplicateUpload

// RSASimulation runs the RSA protocol of §III-C (eq. 3–4): clients
// keep personal models and only element signs reach the server.
type RSASimulation = fl.RSASimulation

// RSAConfig parameterises an RSASimulation.
type RSAConfig = fl.RSAConfig

// NewRSASimulation initialises the RSA protocol from the template's
// parameters.
func NewRSASimulation(template *Network, clients []*Client, cfg RSAConfig) (*RSASimulation, error) {
	return fl.NewRSASimulation(template, clients, cfg)
}

// ---- Fault injection and tolerance ----

// FaultOutcome is one injected client-attempt outcome: a crash, an
// added upload latency, a corrupted upload, or any combination.
type FaultOutcome = faults.Outcome

// FaultInjector decides the FaultOutcome of every (client, round,
// attempt) triple. Implementations must be pure functions of their
// arguments so simulations stay deterministic at any parallelism.
type FaultInjector = faults.Injector

// FaultFunc adapts a plain function to the FaultInjector interface.
type FaultFunc = faults.Func

// FaultSpec describes one client's failure distribution: crash
// probability, flaky period, latency range and corruption probability.
type FaultSpec = faults.Spec

// FaultPlan is a seeded, deterministic FaultInjector with a default
// FaultSpec and optional per-client overrides.
type FaultPlan = faults.Plan

// NewFaultPlan creates a fault plan whose outcomes are a pure function
// of (seed, client, round, attempt).
func NewFaultPlan(seed uint64, spec FaultSpec) *FaultPlan { return faults.NewPlan(seed, spec) }

// FaultPolicy tells the round engine how to cope with unreliable
// clients: per-client deadlines, bounded retry with exponential
// backoff, and quorum-based graceful degradation. A nil policy keeps
// the strict legacy behaviour (any failure aborts the round).
type FaultPolicy = fl.FaultPolicy

// Sentinel errors surfaced by the fault-tolerant round engine, the
// history store and unlearning. Returned errors wrap them, so test
// with errors.Is.
var (
	// ErrClientCrash marks a client attempt lost to a crash.
	ErrClientCrash = fl.ErrClientCrash
	// ErrClientTimeout marks a straggler cut off by the per-client
	// deadline.
	ErrClientTimeout = fl.ErrClientTimeout
	// ErrCorruptUpload marks an upload rejected by validation.
	ErrCorruptUpload = fl.ErrCorruptUpload
	// ErrQuorumNotReached marks a round abandoned because too few
	// scheduled clients responded; the round clock does not advance.
	ErrQuorumNotReached = fl.ErrQuorumNotReached
	// ErrUnknownClient marks a history lookup of a client that never
	// participated.
	ErrUnknownClient = history.ErrUnknownClient
	// ErrNoHistory marks an unlearning or recovery attempt over an
	// empty history store.
	ErrNoHistory = history.ErrNoHistory
	// ErrNoRecord marks a history lookup with no stored record.
	ErrNoRecord = history.ErrNoRecord
	// ErrBadFormat marks a snapshot stream rejected by LoadStore:
	// corrupt, truncated, or not a store snapshot at all.
	ErrBadFormat = history.ErrBadFormat
)

// ---- History ----

// Store is the server-side history log: per-round models, 2-bit
// gradient directions and membership records.
type Store = history.Store

// HistoryReader is the read-only surface shared by Store and
// HistoryView; the Unlearner recovers from any implementation.
type HistoryReader = history.Reader

// HistoryView is a copy-on-write snapshot of a Store: it serves a
// frozen round prefix while RecordRound keeps appending to the parent.
// Obtain one with Store.View.
type HistoryView = history.View

// Membership is a client's recorded participation interval.
type Membership = history.Membership

// StorageReport summarises a Store's footprint: packed-direction
// bytes, model snapshot bytes split into resident and spilled, and the
// savings versus storing full float64 gradients.
type StorageReport = history.StorageReport

// StoreOption configures optional Store behaviour (see WithSpill and
// WithSpillCache).
type StoreOption = history.StoreOption

// WithSpill bounds the store's resident snapshot memory: models older
// than the newest window rounds spill to an unlinked scratch file
// under dir (the OS temp dir when empty) and are read back on demand.
// Recovery results are bit-identical with spilling on or off.
func WithSpill(dir string, window int) StoreOption { return history.WithSpill(dir, window) }

// WithSpillCache sets how many recently-read spilled rounds stay
// decoded in RAM (default 4; 0 disables the cache).
func WithSpillCache(rounds int) StoreOption { return history.WithSpillCache(rounds) }

// NewStore creates a history store for dim-parameter models with
// direction threshold delta. Options enable the bounded-memory
// snapshot tier; call Store.Close when done if one is used.
func NewStore(dim int, delta float64, opts ...StoreOption) (*Store, error) {
	return history.NewStore(dim, delta, opts...)
}

// LoadStore parses a snapshot previously written with Store.Save,
// restoring models, 2-bit directions and membership records. Options
// apply to the restored store exactly as with NewStore.
func LoadStore(r io.Reader, opts ...StoreOption) (*Store, error) { return history.Load(r, opts...) }

// ---- Unlearning (the paper's contribution) ----

// Unlearner executes backtracking and server-side recovery.
type Unlearner = unlearn.Unlearner

// UnlearnConfig parameterises the scheme; zero values select the
// paper's defaults (s=2, L=1, refresh=21, elementwise clipping).
type UnlearnConfig = unlearn.Config

// UnlearnResult describes a completed unlearning operation.
type UnlearnResult = unlearn.Result

// ClipMode selects the gradient-limiting formula.
type ClipMode = unlearn.ClipMode

// Clip modes.
const (
	ClipElementwise = unlearn.ClipElementwise
	ClipNorm        = unlearn.ClipNorm
	ClipOff         = unlearn.ClipOff
)

// NewUnlearner creates an Unlearner over a history store.
func NewUnlearner(store *Store, cfg UnlearnConfig) (*Unlearner, error) {
	return unlearn.New(store, cfg)
}

// UnlearnCommitPass is an in-progress unlearning pass that rewrites
// the history into a fresh store incrementally while the original
// keeps recording rounds; see Unlearner.BeginCommit. Its committed
// result is bit-identical to a stop-the-world UnlearnAndCommitContext
// over the final history.
type UnlearnCommitPass = unlearn.CommitPass

// UnlearnQueue serialises asynchronous unlearning requests behind a
// single worker: pending requests coalesce into one backtrack-and-
// recovery pass, duplicate client sets dedup onto the pending request,
// and training rounds keep committing while a pass runs.
type UnlearnQueue = unlearn.Queue

// UnlearnQueueConfig configures an UnlearnQueue.
type UnlearnQueueConfig = unlearn.QueueConfig

// UnlearnQueueCommit is the rewritten store and result a queue pass
// hands to its CommitFunc for installation.
type UnlearnQueueCommit = unlearn.QueueCommit

// UnlearnQueueStats is an UnlearnQueue's live counters.
type UnlearnQueueStats = unlearn.QueueStats

// UnlearnRequestInfo describes one queued request's lifecycle state.
type UnlearnRequestInfo = unlearn.RequestInfo

// NewUnlearnQueue creates an unlearning request queue; see
// unlearn.QueueConfig for the required hooks.
func NewUnlearnQueue(cfg UnlearnQueueConfig) (*UnlearnQueue, error) {
	return unlearn.NewQueue(cfg)
}

// ---- Unlearning strategies ----

// UnlearnStrategy is one unlearning algorithm selectable by name:
// Name() is the registry key, Needs() declares the required inputs,
// and Unlearn erases the requested clients. Seven strategies register
// themselves at init: "paper" (the paper's 2-bit-direction scheme),
// "retrain", "fedrecover", "fedrecovery", "federaser", "pga" and
// "not". See internal/unlearn/strategy and DESIGN.md §14.
type UnlearnStrategy = strategy.Strategy

// UnlearnRequest carries everything any registered strategy might
// need; callers fill what their deployment has and each strategy
// validates the subset it declares via Needs.
type UnlearnRequest = strategy.Request

// StrategyResult is the common result shape every strategy produces:
// the unlearned model plus comparable cost accounting (rounds
// replayed, storage read, client work demanded).
type StrategyResult = strategy.Result

// StrategyNeeds is a strategy's capability bitmask: the request inputs
// it requires (direction store, full history, clients, template,
// final parameters).
type StrategyNeeds = strategy.Needs

// Strategy capability flags.
const (
	NeedsDirectionStore = strategy.NeedsDirectionStore
	NeedsFullHistory    = strategy.NeedsFullHistory
	NeedsClients        = strategy.NeedsClients
	NeedsTemplate       = strategy.NeedsTemplate
	NeedsFinalParams    = strategy.NeedsFinalParams
)

// ErrUnknownStrategy reports an unlearning request against a name no
// strategy registered under.
var ErrUnknownStrategy = strategy.ErrUnknownStrategy

// ErrStrategyMissingInput reports an unlearning request that lacks an
// input the selected strategy requires (e.g. "federaser" without a
// full-gradient history).
var ErrStrategyMissingInput = strategy.ErrMissingInput

// Unlearn erases req.Forgotten with the named strategy — the single
// entry point the fuiov commands and POST /v1/unlearn dispatch through.
// It validates req against the strategy's needs, honours ctx
// cancellation at round boundaries, and leaves the request's stores
// and clients unmodified.
func Unlearn(ctx context.Context, name string, req UnlearnRequest) (*StrategyResult, error) {
	return strategy.Unlearn(ctx, name, req)
}

// StrategyNames lists every registered unlearning strategy, sorted.
func StrategyNames() []string { return strategy.Names() }

// LookupStrategy returns the strategy registered under name, or
// ErrUnknownStrategy.
func LookupStrategy(name string) (UnlearnStrategy, error) { return strategy.Lookup(name) }

// RegisterStrategy adds a custom strategy under its Name(); duplicate
// names are an error.
func RegisterStrategy(s UnlearnStrategy) error { return strategy.Register(s) }

// ---- Networked serving ----

// RSUCoordinator serves the RSU round protocol over HTTP: vehicles
// fetch the global model, upload gradients (dense or sign-compressed),
// and the coordinator commits rounds through the deterministic
// engine's own path, so HTTP-served schedules produce bit-identical
// models to in-process simulations. It implements http.Handler; mount
// it on any http.Server. The wire protocol is specified in
// PROTOCOL.md.
type RSUCoordinator = server.Coordinator

// RSUConfig parameterises an RSUCoordinator: the engine it fronts,
// the expected-client schedule, the wall-clock collection window, the
// training horizon, and /v1/unlearn's unlearning configuration.
type RSUConfig = server.Config

// NewRSUCoordinator creates a coordinator over a deterministic
// Simulation. The simulation's registered clients become the server's
// client registry, its FaultPolicy supplies quorum and deadline
// semantics against wall-clock time, and its Store receives every
// committed round.
func NewRSUCoordinator(cfg RSUConfig) (*RSUCoordinator, error) { return server.New(cfg) }

// RSURoutes lists every method+pattern an RSUCoordinator registers,
// in the order PROTOCOL.md documents them.
func RSURoutes() []string { return server.Routes() }

// VehicleAgent is the client side of the RSU protocol: one vehicle
// that follows a coordinator's round clock over HTTP, computes
// gradients on its private shard, and uploads them when its mobility
// schedule says it is in coverage.
type VehicleAgent = agent.Agent

// VehicleAgentConfig parameterises a VehicleAgent. Seed must match
// the coordinator engine's seed for networked rounds to reproduce
// in-process ones bit-identically.
type VehicleAgentConfig = agent.Config

// NewVehicleAgent creates an agent; VehicleAgent.Run drives it.
func NewVehicleAgent(cfg VehicleAgentConfig) (*VehicleAgent, error) { return agent.New(cfg) }

// UploadEncoding selects how a gradient upload is serialised on the
// wire: exact float64s or the lossy 2-bit sign compression.
type UploadEncoding = server.Encoding

// Upload encodings.
const (
	// EncodingDense ships exact float64 gradients (byte-exact; the
	// bit-identity path).
	EncodingDense = server.EncodingDense
	// EncodingSign ships thresholded 2-bit directions plus a scale —
	// a 32× smaller upload carrying sign(g)·scale (lossy).
	EncodingSign = server.EncodingSign
)

// ParseUploadEncoding maps the flag/wire names "dense" and "sign"
// back to an UploadEncoding.
func ParseUploadEncoding(s string) (UploadEncoding, error) { return server.ParseEncoding(s) }

// WallClock measures a FaultPolicy's deadlines, retry backoff and
// quorum against real time — the serving layer's view of the same
// semantics the round engine applies to simulated time.
type WallClock = fl.WallClock

// NewWallClock builds a WallClock over a policy; now substitutes the
// clock for tests (nil means time.Now).
func NewWallClock(p *FaultPolicy, now func() time.Time) WallClock { return p.WallClock(now) }

// Networked-layer sentinel errors.
var (
	// ErrBadFrame marks a binary wire frame rejected by a reader.
	ErrBadFrame = server.ErrBadFrame
	// ErrServerClosed marks requests arriving after
	// RSUCoordinator.Close.
	ErrServerClosed = server.ErrClosed
)

// ---- Attacks ----

// Poisoner transforms a client's shard into a poisoned counterpart.
type Poisoner = attack.Poisoner

// LabelFlip relabels a source class to a target class.
type LabelFlip = attack.LabelFlip

// Backdoor stamps a trigger patch and relabels to a target class.
type Backdoor = attack.Backdoor

// DefaultBackdoor returns the paper's 3×3 trigger targeting class 2.
func DefaultBackdoor() *Backdoor { return attack.DefaultBackdoor() }

// FlipSuccessRate measures a label-flip attack's success rate on a
// test set.
func FlipSuccessRate(net *Network, test *Dataset, source, target int) float64 {
	return attack.FlipSuccessRate(net, test, source, target)
}

// ---- Full-gradient history tier ----

// FullHistory records complete float64 gradients (the storage regime
// of FedRecover, FedRecovery and FedEraser — StrategyNeeds'
// NeedsFullHistory).
type FullHistory = strategy.FullHistory

// NewFullHistory creates a full-gradient recorder.
func NewFullHistory(dim int) (*FullHistory, error) { return strategy.NewFullHistory(dim) }

// ---- Detection ----

// CosineDetector flags clients whose uploads oppose the (median)
// consensus direction.
type CosineDetector = detect.CosineDetector

// ConsistencyDetector flags clients whose uploads deviate from their
// L-BFGS-predicted evolution (FLDetector-style).
type ConsistencyDetector = detect.ConsistencyDetector

// DetectionScore is a client's accumulated suspicion statistic.
type DetectionScore = detect.Score

// NewCosineDetector returns a cosine-similarity detector.
func NewCosineDetector() *CosineDetector { return detect.NewCosineDetector() }

// NewConsistencyDetector returns an FLDetector-style detector.
func NewConsistencyDetector() *ConsistencyDetector { return detect.NewConsistencyDetector() }

// ---- Forgetting verification ----

// VerifyConfig tunes the forgetting-verification suite (shadow-model
// count, relearn cap, …); its zero value selects the suite defaults.
type VerifyConfig = verify.Config

// VerifyTarget describes the trained federation an unlearning
// strategy ran against: architecture, clients, the forgotten set, the
// clean test set and the pre-unlearn model.
type VerifyTarget = verify.Target

// ForgettingScore is one unlearned model's forgetting scorecard:
// membership-inference advantage before/after unlearning, backdoor
// retention across the unlearn/relearn lifecycle, and
// relearn-time-to-recover.
type ForgettingScore = verify.Score

// VerifySuite holds the fitted membership attack and the pre-unlearn
// measurements so several strategies can be scored against one shadow
// fit. Build it with NewVerifySuite, score with its Score method.
type VerifySuite = verify.Suite

// NewVerifySuite trains the shadow models, fits the membership attack
// and scores the pre-unlearn model once, for reuse across strategies.
func NewVerifySuite(ctx context.Context, tgt VerifyTarget, cfg VerifyConfig) (*VerifySuite, error) {
	return verify.NewSuite(ctx, tgt, cfg)
}

// VerifyUnlearning scores one unlearned model (the after parameters)
// against a target federation: shadow-model membership inference,
// backdoor retention and relearn time (DESIGN.md §17). Callers
// comparing several strategies should use NewVerifySuite instead and
// amortize the shadow fit.
func VerifyUnlearning(ctx context.Context, tgt VerifyTarget, cfg VerifyConfig, after []float64) (ForgettingScore, error) {
	return verify.Run(ctx, tgt, cfg, after)
}

// ---- IoV mobility ----

// Vehicle is a moving client on the highway.
type Vehicle = iov.Vehicle

// RSU is a road-side unit with limited radio coverage.
type RSU = iov.RSU

// IoVConfig describes a highway connectivity scenario.
type IoVConfig = iov.Config

// Trace is a per-round connectivity record implementing Schedule.
type Trace = iov.Trace

// SimulateIoV rolls a highway scenario forward and returns its
// connectivity trace.
func SimulateIoV(cfg IoVConfig, rounds int) (*Trace, error) { return iov.Simulate(cfg, rounds) }

// ---- Telemetry ----

// Telemetry is a metrics registry: counters, gauges and phase timers
// that the simulation, history store, unlearner, baselines and the
// networked serving layer (RSUCoordinator request counters and
// latency timers, VehicleAgent round/retry counters) report into when
// one is attached via the Telemetry fields of their configs (or
// Store.SetTelemetry / FullHistory.SetTelemetry). A nil *Telemetry
// disables all instrumentation at negligible cost.
type Telemetry = telemetry.Registry

// TelemetryEvent is one structured per-round record emitted to an
// attached observer.
type TelemetryEvent = telemetry.Event

// TelemetryObserver receives per-round events.
type TelemetryObserver = telemetry.Observer

// TelemetrySnapshot is a point-in-time copy of every metric.
type TelemetrySnapshot = telemetry.Snapshot

// NewTelemetry creates an empty metrics registry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// NewJSONTelemetryObserver streams telemetry events as JSON lines to
// w, one object per event.
func NewJSONTelemetryObserver(w io.Writer) TelemetryObserver { return telemetry.NewJSONObserver(w) }

// NewTextTelemetryObserver streams telemetry events as aligned
// human-readable text lines to w.
func NewTextTelemetryObserver(w io.Writer) TelemetryObserver { return telemetry.NewTextObserver(w) }

// StartProfiles begins CPU profiling to prefix+".cpu.pb.gz" and
// returns a stop function that ends it and writes a heap profile to
// prefix+".heap.pb.gz".
func StartProfiles(prefix string) (stop func() error, err error) {
	return telemetry.StartProfiles(prefix)
}

// ---- Metrics ----

// Accuracy evaluates a network on a dataset.
func Accuracy(net *Network, d *Dataset) float64 { return metrics.Accuracy(net, d) }

// AccuracyAt evaluates a network with the given flat parameters.
func AccuracyAt(net *Network, params []float64, d *Dataset) float64 {
	return metrics.AccuracyAt(net, params, d)
}

// ModelDistance returns the L2 distance between two parameter vectors.
func ModelDistance(a, b []float64) (float64, error) { return metrics.ModelDistance(a, b) }

// Confusion is a confusion matrix with per-class diagnostics.
type Confusion = metrics.Confusion

// ConfusionMatrix tallies predictions per true class.
func ConfusionMatrix(net *Network, d *Dataset) (*Confusion, error) {
	return metrics.ConfusionMatrix(net, d)
}
