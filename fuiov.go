package fuiov

import (
	"context"
	"io"

	"fuiov/internal/attack"
	"fuiov/internal/dataset"
	"fuiov/internal/detect"
	"fuiov/internal/faults"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/metrics"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
	"fuiov/internal/telemetry"
	"fuiov/internal/unlearn"
	"fuiov/internal/unlearn/strategy"
	"fuiov/internal/verify"
)

// This file holds only what a non-test caller outside the package
// imports (examples/, internal/simtest), plus the type aliases those
// names' signatures mention. TestFacadeNamesHaveCallers fails on any
// other exported name: add the caller first, then the name.

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

// SynthDigits generates the MNIST stand-in dataset.
func SynthDigits(cfg SynthConfig) *Dataset { return dataset.SynthDigits(cfg) }

// PartitionIID splits a dataset into n near-equal shuffled shards.
func PartitionIID(d *Dataset, r *RNG, n int) ([]*Dataset, error) {
	return dataset.PartitionIID(d, r, n)
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

// Interval is a [Join, Leave) participation window.
type Interval = fl.Interval

// IntervalSchedule maps clients to participation intervals.
type IntervalSchedule = fl.IntervalSchedule

// Recorder observes each round's model, gradients and weights.
type Recorder = fl.Recorder

// NewSimulation creates a federated simulation starting from the
// template's current parameters.
func NewSimulation(template *Network, clients []*Client, cfg SimConfig) (*Simulation, error) {
	return fl.NewSimulation(template, clients, cfg)
}

// ---- Fault injection and tolerance ----

// FaultSpec describes one client's failure distribution: crash
// probability, flaky period, latency range and corruption probability.
type FaultSpec = faults.Spec

// FaultPlan is a seeded, deterministic fault injector (SimConfig.Faults)
// with a default FaultSpec and optional per-client overrides.
type FaultPlan = faults.Plan

// NewFaultPlan creates a fault plan whose outcomes are a pure function
// of (seed, client, round, attempt).
func NewFaultPlan(seed uint64, spec FaultSpec) *FaultPlan { return faults.NewPlan(seed, spec) }

// FaultPolicy tells the round engine how to cope with unreliable
// clients: per-client deadlines, bounded immediate retry, and
// quorum-based graceful degradation. A nil policy keeps
// the strict legacy behaviour (any failure aborts the round).
type FaultPolicy = fl.FaultPolicy

// Sentinel errors callers branch on. Returned errors wrap them, so
// test with errors.Is.
var (
	// ErrQuorumNotReached marks a round abandoned because too few
	// scheduled clients responded; the round clock does not advance.
	ErrQuorumNotReached = fl.ErrQuorumNotReached
	// ErrUnknownClient marks a history lookup of a client that never
	// participated.
	ErrUnknownClient = history.ErrUnknownClient
)

// ---- History ----

// Store is the server-side history log: per-round models, 2-bit
// gradient directions and membership records.
type Store = history.Store

// StorageReport summarises a Store's footprint: packed-direction
// bytes, model snapshot bytes split into resident and spilled, and the
// savings versus storing full float64 gradients.
type StorageReport = history.StorageReport

// StoreOption configures optional Store behaviour (see WithSpill).
type StoreOption = history.StoreOption

// WithSpill bounds the store's resident snapshot memory: models older
// than the newest window rounds spill to an unlinked scratch file
// under dir (the OS temp dir when empty) and are read back on demand.
// Recovery results are bit-identical with spilling on or off.
func WithSpill(dir string, window int) StoreOption { return history.WithSpill(dir, window) }

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
// result is bit-identical to a stop-the-world BeginCommit + Commit
// over the final history.
type UnlearnCommitPass = unlearn.CommitPass

// ---- Unlearning strategies ----

// UnlearnRequest carries everything any registered strategy might
// need; callers fill what their deployment has and each strategy
// validates the subset it requires.
type UnlearnRequest = strategy.Request

// StrategyResult is the common result shape every strategy produces:
// the unlearned model plus comparable cost accounting (rounds
// replayed, storage read, client work demanded).
type StrategyResult = strategy.Result

// Unlearn erases req.Forgotten with the named strategy — the single
// entry point the in-process fuiov commands dispatch through.
// Seven strategies are registered: "paper" (the paper's
// 2-bit-direction scheme), "retrain", "fedrecover", "fedrecovery",
// "federaser", "pga" and "not" (DESIGN.md §14). It validates req
// against the strategy's needs, honours ctx cancellation at round
// boundaries, and leaves the request's stores and clients unmodified.
func Unlearn(ctx context.Context, name string, req UnlearnRequest) (*StrategyResult, error) {
	return strategy.Unlearn(ctx, name, req)
}

// FullHistory records complete float64 gradients — the storage regime
// "fedrecover", "fedrecovery" and "federaser" need
// (UnlearnRequest.Full). Attach it through SimConfig.Recorders.
type FullHistory = strategy.FullHistory

// NewFullHistory creates a full-gradient recorder.
func NewFullHistory(dim int) (*FullHistory, error) { return strategy.NewFullHistory(dim) }

// ---- Attacks ----

// Backdoor stamps a trigger patch and relabels to a target class.
type Backdoor = attack.Backdoor

// DefaultBackdoor returns the paper's 3×3 trigger targeting class 2.
func DefaultBackdoor() *Backdoor { return attack.DefaultBackdoor() }

// ---- Detection ----

// CosineDetector flags clients whose uploads oppose the (median)
// consensus direction.
type CosineDetector = detect.CosineDetector

// ConsistencyDetector flags clients whose uploads deviate from their
// L-BFGS-predicted evolution (FLDetector-style).
type ConsistencyDetector = detect.ConsistencyDetector

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

// VerifySuite holds the fitted membership attack and the pre-unlearn
// measurements so several strategies can be scored against one shadow
// fit. Build it with NewVerifySuite, score with its Score method.
type VerifySuite = verify.Suite

// NewVerifySuite trains the shadow models, fits the membership attack
// and scores the pre-unlearn model once, for reuse across strategies
// (DESIGN.md §17).
func NewVerifySuite(ctx context.Context, tgt VerifyTarget, cfg VerifyConfig) (*VerifySuite, error) {
	return verify.NewSuite(ctx, tgt, cfg)
}

// ---- Telemetry ----

// Telemetry is a metrics registry: counters, gauges and phase timers
// that the simulation, history store and unlearner report into when
// one is attached via the Telemetry fields of their configs (or
// Store.SetTelemetry). A nil *Telemetry disables all instrumentation
// at negligible cost.
type Telemetry = telemetry.Registry

// NewTelemetry creates an empty metrics registry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// ---- Metrics ----

// Accuracy evaluates a network on a dataset.
func Accuracy(net *Network, d *Dataset) float64 { return metrics.Accuracy(net, d) }

// AccuracyAt evaluates a network with the given flat parameters.
func AccuracyAt(net *Network, params []float64, d *Dataset) float64 {
	return metrics.AccuracyAt(net, params, d)
}
