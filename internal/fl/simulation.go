package fl

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"fuiov/internal/faults"
	"fuiov/internal/history"
	"fuiov/internal/nn"
	"fuiov/internal/telemetry"
	"fuiov/internal/tensor"
)

var _ Recorder = (*history.Store)(nil)

// Schedule decides which clients participate in a round. It enables
// the dynamic IoV membership the paper targets: vehicles joining FL
// mid-training, leaving, or dropping out.
type Schedule interface {
	// Participates reports whether the client takes part in round t.
	Participates(id history.ClientID, t int) bool
}

// AlwaysOn is the static-federation schedule assumed by the baselines.
type AlwaysOn struct{}

var _ Schedule = AlwaysOn{}

// Participates always returns true.
func (AlwaysOn) Participates(history.ClientID, int) bool { return true }

// Interval is a [Join, Leave) participation window; Leave < 0 means
// the client never leaves.
type Interval struct {
	Join, Leave int
}

// Contains reports whether round t lies in the interval.
func (iv Interval) Contains(t int) bool {
	return t >= iv.Join && (iv.Leave < 0 || t < iv.Leave)
}

// IntervalSchedule maps each client to a participation interval.
// Clients not in the map never participate.
type IntervalSchedule map[history.ClientID]Interval

var _ Schedule = IntervalSchedule{}

// Participates implements Schedule.
func (s IntervalSchedule) Participates(id history.ClientID, t int) bool {
	iv, ok := s[id]
	return ok && iv.Contains(t)
}

// FuncSchedule adapts a function to the Schedule interface.
type FuncSchedule func(id history.ClientID, t int) bool

var _ Schedule = (FuncSchedule)(nil)

// Participates implements Schedule.
func (f FuncSchedule) Participates(id history.ClientID, t int) bool { return f(id, t) }

// Recorder observes each round's pre-update model, uploaded gradients
// and aggregation weights. *history.Store is the canonical
// implementation; the full-gradient stores used by the baseline
// recovery methods are others.
type Recorder interface {
	RecordRound(t int, model []float64, grads map[history.ClientID][]float64, weights map[history.ClientID]float64) error
}

// Config parameterises a Simulation.
type Config struct {
	// LearningRate is η in eq. 2.
	LearningRate float64
	// Seed drives every random draw in the simulation.
	Seed uint64
	// Parallelism bounds concurrent client computations
	// (0 = GOMAXPROCS).
	Parallelism int
	// Schedule defaults to AlwaysOn when nil.
	Schedule Schedule
	// Store, when non-nil, records every round for later unlearning.
	Store *history.Store
	// Recorders are additional round observers (e.g. the baselines'
	// full-gradient stores). They run after Store.
	Recorders []Recorder
	// Streaming selects the sharded StreamAggregator for every round:
	// uploads fold into StreamShards shard accumulators the moment
	// they are computed (or arrive over HTTP), so round memory is
	// O(shards × dim) instead of O(cohort × dim) — at the price of
	// committed bits that depend on each shard's arrival order.
	// Without it the round buffers the cohort and runs FedAvg over it
	// in ascending-ID order, whatever order it arrived in. Streaming
	// cannot feed full-gradient Recorders. The history Store works in
	// both modes: every upload is recorded as its 2-bit direction,
	// compressed on arrival unless it arrived as one. With
	// StreamShards == 1 and ascending-ID arrival the committed update is
	// bit-identical to the buffered one; with more shards it differs
	// only by float-addition reassociation and is bit-reproducible run
	// to run (DESIGN.md §15).
	Streaming bool
	// StreamShards is the streaming path's shard count P
	// (0 = Parallelism).
	StreamShards int
	// StartRound sets the round clock's initial value, letting a
	// simulation resume a history reloaded mid-run (history.Load):
	// set it to the loaded store's Rounds(), seed the template with the
	// saved global parameters, and the next RunRoundContext continues
	// the original trajectory bit-identically. 0 (the default) starts a
	// fresh run.
	StartRound int
	// Telemetry, when non-nil, receives per-phase timings, counters
	// and one round event per round (see internal/telemetry
	// names.go for the metric names). Nil disables instrumentation at
	// ~zero cost.
	Telemetry *telemetry.Registry
	// Faults, when non-nil, injects per-attempt client fault outcomes
	// (crash, latency, corrupt upload) into every client call. Without
	// a FaultPolicy the faults are terminal: a crashed client aborts
	// the round and a corrupted upload flows into aggregation
	// unvalidated (the unprotected baseline).
	Faults faults.Injector
	// FaultPolicy, when non-nil, turns on graceful degradation:
	// per-client deadlines, bounded retry with exponential backoff,
	// upload validation and quorum aggregation. Clients that stay
	// unreachable after retries are dropped from the round and
	// recorded as non-participants, so later unlearning remains
	// consistent.
	FaultPolicy *FaultPolicy
}

// simMetrics caches telemetry handles so the round loop never touches
// the registry's lock; every field is nil (no-op) when telemetry is
// disabled.
type simMetrics struct {
	round        *telemetry.Timer
	compute      *telemetry.Timer
	compress     *telemetry.Timer
	record       *telemetry.Timer
	aggregate    *telemetry.Timer
	im2col       *telemetry.Timer
	gemm         *telemetry.Timer
	col2im       *telemetry.Timer
	rounds       *telemetry.Counter
	participants *telemetry.Counter
	faults       faultMetrics
	stream       streamMetrics
}

// streamMetrics describe the round's StreamAggregator, sharded or
// buffering (fl.stream.*, nil/no-op when telemetry is disabled).
type streamMetrics struct {
	fold      *telemetry.Timer
	resolve   *telemetry.Timer
	folds     *telemetry.Counter
	absentees *telemetry.Counter
	shards    *telemetry.Gauge
}

func newStreamMetrics(r *telemetry.Registry) streamMetrics {
	return streamMetrics{
		fold:      r.Timer(telemetry.FLStreamFold),
		resolve:   r.Timer(telemetry.FLStreamResolve),
		folds:     r.Counter(telemetry.FLStreamFolds),
		absentees: r.Counter(telemetry.FLStreamAbsentees),
		shards:    r.Gauge(telemetry.FLStreamShards),
	}
}

// faultMetrics are the fault-tolerance counters shared by Simulation
// and RSASimulation (nil/no-op when telemetry is disabled).
type faultMetrics struct {
	clientErrors     *telemetry.Counter
	retries          *telemetry.Counter
	timeouts         *telemetry.Counter
	crashes          *telemetry.Counter
	corrupt          *telemetry.Counter
	absentees        *telemetry.Counter
	degradedRounds   *telemetry.Counter
	quorumShortfalls *telemetry.Counter
	skippedRounds    *telemetry.Counter
}

func newFaultMetrics(r *telemetry.Registry) faultMetrics {
	return faultMetrics{
		clientErrors:     r.Counter(telemetry.FLClientErrors),
		retries:          r.Counter(telemetry.FLRetries),
		timeouts:         r.Counter(telemetry.FLTimeouts),
		crashes:          r.Counter(telemetry.FLCrashes),
		corrupt:          r.Counter(telemetry.FLCorruptUploads),
		absentees:        r.Counter(telemetry.FLAbsentees),
		degradedRounds:   r.Counter(telemetry.FLDegradedRounds),
		quorumShortfalls: r.Counter(telemetry.FLQuorumShortfalls),
		skippedRounds:    r.Counter(telemetry.FLSkippedRounds),
	}
}

// observe accumulates one client call's fault tallies.
func (m faultMetrics) observe(r callResult) {
	m.retries.Add(int64(r.retries))
	m.timeouts.Add(int64(r.timeouts))
	m.crashes.Add(int64(r.crashes))
	m.corrupt.Add(int64(r.corrupt))
}

func newSimMetrics(r *telemetry.Registry) simMetrics {
	return simMetrics{
		round:        r.Timer(telemetry.FLRound),
		compute:      r.Timer(telemetry.FLRoundCompute),
		compress:     r.Timer(telemetry.HistoryCompress),
		record:       r.Timer(telemetry.FLRoundRecord),
		aggregate:    r.Timer(telemetry.FLRoundAggregate),
		im2col:       r.Timer(telemetry.NNKernelIm2col),
		gemm:         r.Timer(telemetry.NNKernelGEMM),
		col2im:       r.Timer(telemetry.NNKernelCol2im),
		rounds:       r.Counter(telemetry.FLRounds),
		participants: r.Counter(telemetry.FLParticipants),
		faults:       newFaultMetrics(r),
		stream:       newStreamMetrics(r),
	}
}

// Simulation runs synchronous federated rounds over a fixed client
// population (participation per round is governed by the schedule).
type Simulation struct {
	cfg      Config
	template *nn.Network
	params   []float64
	clients  []*Client
	round    int
	met      simMetrics
	fan      fanOut

	// known is the registered-client set (O(1) upload validation in
	// RoundStream.Add).
	known map[history.ClientID]bool

	// Round state, allocated once at NewSimulation and reset per round.
	// stream is the round's aggregator: ShardedFedAvg under
	// Config.Streaming, otherwise buffer — the same value, kept under
	// its concrete type so the commit can hand the buffered cohort to
	// Recorders. respBits marks responders (sized by the largest
	// registered ID) and aggOut receives the resolved aggregate.
	stream   StreamAggregator
	buffer   *cohortBuffer
	respBits *history.Bitmap
	aggOut   []float64
	// The in-process loop's cohort and per-chunk result scratch.
	cohortBuf []*Client
	chunkRes  []callResult
	// liveStream is the open round (NewRoundStream); committing or
	// aborting closes it.
	liveStream *RoundStream
}

// NewSimulation creates a simulation starting from the template's
// current parameters.
func NewSimulation(template *nn.Network, clients []*Client, cfg Config) (*Simulation, error) {
	if template == nil {
		return nil, fmt.Errorf("fl: nil template network")
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("fl: no clients")
	}
	if cfg.LearningRate <= 0 {
		return nil, fmt.Errorf("fl: non-positive learning rate %v", cfg.LearningRate)
	}
	known := make(map[history.ClientID]bool, len(clients))
	var maxID history.ClientID
	for _, c := range clients {
		if c == nil {
			return nil, fmt.Errorf("fl: nil client")
		}
		if known[c.ID] {
			return nil, fmt.Errorf("fl: duplicate client ID %d", c.ID)
		}
		known[c.ID] = true
		if c.ID > maxID {
			maxID = c.ID
		}
	}
	if cfg.Schedule == nil {
		cfg.Schedule = AlwaysOn{}
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.StartRound < 0 {
		return nil, fmt.Errorf("fl: negative start round %d", cfg.StartRound)
	}
	if cfg.Store != nil && cfg.StartRound != cfg.Store.Rounds() {
		return nil, fmt.Errorf("fl: start round %d does not continue the store's %d recorded rounds",
			cfg.StartRound, cfg.Store.Rounds())
	}
	if err := cfg.FaultPolicy.Validate(); err != nil {
		return nil, err
	}
	if cfg.StreamShards < 0 {
		return nil, fmt.Errorf("fl: negative stream shard count %d", cfg.StreamShards)
	}
	if !cfg.Streaming && cfg.StreamShards > 0 {
		return nil, fmt.Errorf("fl: StreamShards set without Streaming")
	}
	if cfg.Telemetry != nil {
		// Turn on the process-wide kernel clocks so RunRoundContext can
		// attribute compute time to im2col/GEMM/col2im.
		nn.EnableKernelTiming(true)
	}
	s := &Simulation{
		cfg:      cfg,
		template: template,
		params:   template.ParamVector(),
		clients:  clients,
		known:    known,
		round:    cfg.StartRound,
		met:      newSimMetrics(cfg.Telemetry),
	}
	s.fan = fanOut{
		sem:    make(chan struct{}, cfg.Parallelism),
		faults: cfg.Faults,
		policy: cfg.FaultPolicy,
		seed:   cfg.Seed,
		met:    s.met.faults,
		scope:  "round",
	}
	s.respBits = history.NewBitmap(int(maxID) + 1)
	s.aggOut = make([]float64, len(s.params))
	if cfg.Streaming {
		if len(cfg.Recorders) > 0 {
			// Full-gradient recorders would force the engine to retain
			// every upload, defeating the flat-memory contract. The
			// history Store still works: it keeps only the uploads' 2-bit
			// directions, in hand at fold time (RecordRoundDirs).
			return nil, fmt.Errorf("fl: streaming cannot feed full-gradient Recorders (retention is O(cohort × dim))")
		}
		if cfg.StreamShards == 0 {
			s.cfg.StreamShards = cfg.Parallelism
		}
		stream, err := NewShardedFedAvg(len(s.params), s.cfg.StreamShards)
		if err != nil {
			return nil, err
		}
		s.stream = stream
		s.met.stream.shards.Set(float64(s.cfg.StreamShards))
	} else {
		s.buffer = &cohortBuffer{}
		s.stream = s.buffer
	}
	return s, nil
}

// Round returns the next round index to be executed.
func (s *Simulation) Round() int { return s.round }

// Params returns a copy of the current global parameters.
func (s *Simulation) Params() []float64 { return tensor.CloneVec(s.params) }

// SetParams overwrites the global parameters (used by recovery drivers).
func (s *Simulation) SetParams(p []float64) error {
	if len(p) != len(s.params) {
		return fmt.Errorf("fl: SetParams dimension %d, want %d", len(p), len(s.params))
	}
	copy(s.params, p)
	return nil
}

// SwapStore atomically replaces the history store the engine records
// into — the commit step of an overlapped unlearning pass (see
// unlearn.CommitPass). The new store must be positioned exactly at the
// engine's round clock and share the model dimension, so the next
// round appends to the rewritten history exactly as it would have to
// the old one. The caller must serialise SwapStore with round
// execution (the engine itself is not goroutine-safe).
func (s *Simulation) SwapStore(ns *history.Store) error {
	if ns == nil {
		return errors.New("fl: SwapStore with nil store")
	}
	if ns.Dim() != len(s.params) {
		return fmt.Errorf("fl: SwapStore dimension %d, want %d", ns.Dim(), len(s.params))
	}
	if ns.Rounds() != s.round {
		return fmt.Errorf("fl: SwapStore store at round %d, engine at round %d", ns.Rounds(), s.round)
	}
	s.cfg.Store = ns
	return nil
}

// Clients returns the client list (shared slice; treat as read-only).
func (s *Simulation) Clients() []*Client { return s.clients }

// Config returns the simulation's effective configuration — with the
// defaults NewSimulation filled in (schedule, parallelism, shards).
// Callers layering on top of the engine (the networked coordinator)
// read the learning rate, store and policy from here rather than
// carrying duplicate copies.
func (s *Simulation) Config() Config { return s.cfg }

// Template returns the architecture template (parameters unspecified).
func (s *Simulation) Template() *nn.Network { return s.template }

// RunRoundContext executes one synchronous round: the cohort's clients
// compute gradients at the current parameters, the server aggregates
// and applies eq. 2, and the round is recorded in the history store.
// A round with no participants advances the clock without an update.
// If ctx is cancelled before the round commits, the round is abandoned
// — nothing recorded, the clock not advanced — and the context's error
// returned.
//
// Failure handling depends on Config.FaultPolicy. Without one the
// engine is strict: if any clients fail, the round is abandoned and
// the error reports every failing client (errors.Join), not just the
// first. With a policy the engine retries failed clients, drops the
// unrecoverable ones from the round (they are recorded as
// non-participants) and commits as long as the quorum holds; below
// quorum it returns an error wrapping ErrQuorumNotReached and the
// clock does not advance.
//
// The round is a RoundStream like any other: the cohort is computed in
// chunks — gradients within a chunk run in parallel, then enter the
// stream sequentially in ascending-ID order — and committed through
// SubmitRoundStream. The fixed order makes the committed update
// bit-reproducible run to run in either mode; under
// Config.Streaming it also bounds live gradient memory at
// O(chunk × dim), independent of the cohort size.
func (s *Simulation) RunRoundContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	roundSpan := s.met.round.Start()
	rs, err := s.NewRoundStream()
	if err != nil {
		return err
	}
	t := rs.t
	cohort := s.cohort(t)

	var failed []error
	computeSpan := s.met.compute.Start()
	kernels := nn.KernelTimingEnabled()
	var im2colBase, gemmBase, col2imBase time.Duration
	if kernels {
		im2colBase, gemmBase, col2imBase = nn.KernelTimes()
	}
	gradient := func(c *Client) ([]float64, error) {
		return c.ComputeGradient(s.template, s.params, s.cfg.Seed, t)
	}
	// Chunk size bounds the live gradient buffers: a small multiple of
	// the worker count keeps every worker busy while capping what a
	// streamed round retains at O(chunk × dim).
	chunk := s.cfg.Parallelism * 2
	if cap(s.chunkRes) < chunk {
		s.chunkRes = make([]callResult, chunk)
	}
	for lo := 0; lo < len(cohort); lo += chunk {
		part := cohort[lo:min(lo+chunk, len(cohort))]
		res := s.chunkRes[:len(part)]
		err := s.fan.call(ctx, t, part, res, gradient)
		if cerr := ctx.Err(); cerr != nil {
			rs.Abort()
			return cerr
		}
		if err != nil {
			// Strict mode: the round is lost, but the remaining chunks
			// still run so the error names every failing client.
			failed = append(failed, err)
		}
		// Sequential adds in chunk order = ascending-ID order.
		for i, c := range part {
			r := res[i]
			// Drop the chunk's reference before the next chunk computes.
			res[i] = callResult{}
			if r.err != nil {
				continue
			}
			if err := rs.Add(c.ID, r.grad, c.Weight()); err != nil {
				rs.Abort()
				return err
			}
		}
	}
	rs.computeDur = computeSpan.End()
	if kernels {
		im2colT, gemmT, col2imT := nn.KernelTimes()
		s.met.im2col.Observe(im2colT - im2colBase)
		s.met.gemm.Observe(gemmT - gemmBase)
		s.met.col2im.Observe(col2imT - col2imBase)
	}
	if len(failed) > 0 {
		rs.Abort()
		return errors.Join(failed...)
	}
	rs.inProcess, rs.roundSpan = true, roundSpan
	return s.SubmitRoundStream(rs, len(cohort))
}

// cohort returns round t's participants — the clients the schedule
// admits — in ascending ID order, independent of registration order,
// so the order uploads enter the round is fixed. The result aliases
// the engine's scratch and is valid until the next call.
func (s *Simulation) cohort(t int) []*Client {
	s.cohortBuf = s.cohortBuf[:0]
	for _, c := range s.clients {
		if s.cfg.Schedule.Participates(c.ID, t) {
			s.cohortBuf = append(s.cohortBuf, c)
		}
	}
	slices.SortFunc(s.cohortBuf, func(a, b *Client) int { return cmp.Compare(a.ID, b.ID) })
	return s.cohortBuf
}

// SubmitRound commits the current round from externally computed
// uploads held in maps: it opens the round, adds the uploads in
// ascending-ID order and commits (SubmitRoundStream) — the order the
// in-process loop uses, so a transport that delivers the same uploads
// produces the same model bits. grads and weights hold the
// responders' uploads; scheduled is the number of clients that were
// expected this round. Every upload needs a weight, and RoundStream.Add
// and SubmitRoundStream enforce the rest: registered clients, the
// model dimension, finite non-negative weights, the quorum. A refused
// upload or a failed commit leaves history and clock untouched.
func (s *Simulation) SubmitRound(grads map[history.ClientID][]float64, weights map[history.ClientID]float64, scheduled int) error {
	rs, err := s.NewRoundStream()
	if err != nil {
		return err
	}
	for _, id := range sortedIDs(grads) {
		w, ok := weights[id]
		if !ok {
			rs.Abort()
			return fmt.Errorf("fl: round %d: client %d upload has no weight", rs.t, id)
		}
		if err := rs.Add(id, grads[id], w); err != nil {
			rs.Abort()
			return err
		}
	}
	return s.SubmitRoundStream(rs, scheduled)
}

// SkipRound records the current round as empty — model unchanged, no
// participants — and advances the round clock. Fault outcomes are
// deterministic per (client, round), so after a quorum shortfall
// (ErrQuorumNotReached) re-running the same round replays the
// identical failure; callers that want to press on skip the doomed
// round and re-sample the fleet at the next one. The history store
// stays contiguous (it sees an ordinary empty round), so backtracking
// and membership logic remain consistent.
func (s *Simulation) SkipRound() error {
	t := s.round
	if s.cfg.Store != nil {
		if err := s.cfg.Store.RecordRound(t, s.params, nil, nil); err != nil {
			return fmt.Errorf("fl: skip round %d: %w", t, err)
		}
	}
	for i, rec := range s.cfg.Recorders {
		if err := rec.RecordRound(t, s.params, nil, nil); err != nil {
			return fmt.Errorf("fl: recorder %d skip round %d: %w", i, t, err)
		}
	}
	s.round++
	s.met.rounds.Inc()
	s.met.faults.skippedRounds.Inc()
	return nil
}

// RunContext executes the given number of rounds, stopping early with
// the context's error if ctx is cancelled. Cancellation takes effect
// at the next round boundary (or sooner, between client attempts):
// the in-flight round is abandoned without recording, so the history
// store stays consistent and readable.
func (s *Simulation) RunContext(ctx context.Context, rounds int) error {
	for i := 0; i < rounds; i++ {
		if err := s.RunRoundContext(ctx); err != nil {
			return err
		}
	}
	return nil
}
