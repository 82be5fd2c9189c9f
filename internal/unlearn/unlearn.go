package unlearn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/lbfgs"
	"fuiov/internal/sign"
	"fuiov/internal/telemetry"
	"fuiov/internal/tensor"
)

// Config parameterises the unlearning scheme. Zero values select the
// paper's defaults where they exist.
type Config struct {
	// PairSize is s, the number of L-BFGS vector pairs (paper: 2).
	PairSize int
	// ClipThreshold is L in eq. 7 (paper: 1).
	ClipThreshold float64
	// ClipMode defaults to the paper's elementwise formula.
	ClipMode ClipMode
	// RefreshEvery refreshes the vector pairs after this many
	// recovered rounds (paper: 21). 0 disables refresh.
	RefreshEvery int
	// LearningRate is η in eq. 2; recovery reuses the training value.
	LearningRate float64
	// Parallelism bounds concurrent per-client gradient estimations
	// within a recovery round (0 = GOMAXPROCS). Results are
	// bit-identical at any setting.
	Parallelism int
	// Aggregator defaults to FedAvg, which recovery runs through its
	// element-range split (bit-equal to FedAvg.AggregateInto). Any
	// other value is called through Aggregate: the seam a test uses to
	// observe what recovery aggregates.
	Aggregator fl.Aggregator
	// DisableBootstrap skips seeding L-BFGS pairs from pre-join
	// history (ablation A3 in DESIGN.md). Estimation then starts from
	// raw directions until the first pair refresh.
	DisableBootstrap bool
	// OnlineBootstrap, when non-nil, implements the paper's optional
	// client-assisted bootstrap (§IV-B): for a remaining client that
	// lacks stored directions in the pre-join window but is still
	// online, the server dispatches the historical model of the
	// missing round and receives a fresh gradient. The callback
	// returns the client's gradient at the given parameters, or an
	// error if the client is offline (the round is then skipped, as
	// the paper's offline path prescribes).
	OnlineBootstrap func(id history.ClientID, round int, params []float64) ([]float64, error)
	// BootstrapRetries is the number of extra OnlineBootstrap attempts
	// after a failed dispatch — IoV clients are transiently
	// unreachable, so one retry often recovers the round. After the
	// budget is spent the scheme falls back to the offline path: the
	// round is skipped and recovery proceeds from stored directions
	// alone. 0 disables retry.
	BootstrapRetries int
	// BootstrapBackoff is the wall-clock wait before the first
	// bootstrap retry; it doubles on every further retry and honours
	// context cancellation. 0 retries immediately.
	BootstrapBackoff time.Duration
	// Telemetry, when non-nil, receives backtrack gauges, per-round
	// recovery timings, clip/refresh/fallback counters and one event
	// per recovered round. Nil disables instrumentation at ~zero cost.
	Telemetry *telemetry.Registry
}

// unlearnMetrics caches telemetry handles (all nil/no-op when
// telemetry is disabled).
type unlearnMetrics struct {
	backtrackRound  *telemetry.Gauge
	backtrackDepth  *telemetry.Gauge
	recoverRound    *telemetry.Timer
	estimate        *telemetry.Timer
	aggregate       *telemetry.Timer
	recoveredRounds *telemetry.Counter
	pairRefreshes   *telemetry.Counter
	fallbacks       *telemetry.Counter
	clips           *telemetry.Counter
	bootstraps      *telemetry.Counter
	bootstrapRetry  *telemetry.Counter
	bootstrapSkips  *telemetry.Counter
}

func newUnlearnMetrics(r *telemetry.Registry) unlearnMetrics {
	return unlearnMetrics{
		backtrackRound:  r.Gauge(telemetry.UnlearnBacktrackRound),
		backtrackDepth:  r.Gauge(telemetry.UnlearnBacktrackDepth),
		recoverRound:    r.Timer(telemetry.UnlearnRecoverRound),
		estimate:        r.Timer(telemetry.UnlearnEstimate),
		aggregate:       r.Timer(telemetry.UnlearnAggregate),
		recoveredRounds: r.Counter(telemetry.UnlearnRecoveredRounds),
		pairRefreshes:   r.Counter(telemetry.UnlearnPairRefreshes),
		fallbacks:       r.Counter(telemetry.UnlearnFallbacks),
		clips:           r.Counter(telemetry.UnlearnClipActivations),
		bootstraps:      r.Counter(telemetry.UnlearnBootstraps),
		bootstrapRetry:  r.Counter(telemetry.UnlearnBootstrapRetry),
		bootstrapSkips:  r.Counter(telemetry.UnlearnBootstrapSkips),
	}
}

func (c Config) withDefaults() Config {
	if c.PairSize == 0 {
		c.PairSize = 2
	}
	if c.ClipThreshold == 0 {
		c.ClipThreshold = 1
	}
	if c.ClipMode == 0 {
		c.ClipMode = ClipElementwise
	}
	if c.RefreshEvery == 0 {
		c.RefreshEvery = 21
	}
	if c.Aggregator == nil {
		c.Aggregator = fl.FedAvg{}
	}
	return c
}

func (c Config) validate() error {
	if c.PairSize < 0 {
		return fmt.Errorf("unlearn: negative pair size %d", c.PairSize)
	}
	if c.ClipThreshold < 0 {
		return fmt.Errorf("unlearn: negative clip threshold %v", c.ClipThreshold)
	}
	if c.RefreshEvery < 0 {
		return fmt.Errorf("unlearn: negative refresh period %d", c.RefreshEvery)
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("unlearn: non-positive learning rate %v", c.LearningRate)
	}
	if c.BootstrapRetries < 0 {
		return fmt.Errorf("unlearn: negative bootstrap retries %d", c.BootstrapRetries)
	}
	if c.BootstrapBackoff < 0 {
		return fmt.Errorf("unlearn: negative bootstrap backoff %v", c.BootstrapBackoff)
	}
	return nil
}

// Unlearner executes backtracking and recovery against a history
// store. It never contacts clients: everything it needs is the stored
// models, gradient directions and membership records.
type Unlearner struct {
	store history.Reader
	cfg   Config
	met   unlearnMetrics
}

// New creates an Unlearner over the given history reader. Every caller
// passes the live *history.Store, the overlapped queue included: a pass
// reads only immutable round records, so appends during it are safe.
func New(store history.Reader, cfg Config) (*Unlearner, error) {
	if store == nil {
		return nil, errors.New("unlearn: nil history store")
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Unlearner{store: store, cfg: cfg, met: newUnlearnMetrics(cfg.Telemetry)}, nil
}

// Config returns the effective (defaulted) configuration.
func (u *Unlearner) Config() Config { return u.cfg }

// Result describes a completed unlearning operation.
type Result struct {
	// Params is the recovered global model w̄_T.
	Params []float64
	// Unlearned is the backtracked model w_F before recovery.
	Unlearned []float64
	// BacktrackRound is F, the earliest join round among the
	// forgotten clients.
	BacktrackRound int
	// RecoveredRounds is T − F, the number of re-estimated rounds.
	RecoveredRounds int
	// Forgotten lists the erased client IDs (sorted).
	Forgotten []history.ClientID
	// DegenerateFallbacks counts client-rounds where the L-BFGS
	// approximation was unusable and the raw stored direction was used
	// without a Hessian correction.
	DegenerateFallbacks int
	// PairRefreshes counts vector-pair refresh events.
	PairRefreshes int
	// BootstrappedClients counts clients whose L-BFGS pairs could be
	// seeded from pre-join history.
	BootstrappedClients int
}

// Backtrack computes the unlearned model: the global parameters as
// they were at round F, the earliest join round among the forgotten
// clients (eq. 5: w̄ = w_F). It returns the parameters and F.
func (u *Unlearner) Backtrack(forgotten ...history.ClientID) ([]float64, int, error) {
	if len(forgotten) == 0 {
		return nil, 0, errors.New("unlearn: no clients to forget")
	}
	if u.store.Rounds() == 0 {
		return nil, 0, fmt.Errorf("unlearn: %w", history.ErrNoHistory)
	}
	f := -1
	for _, id := range forgotten {
		join, err := u.store.JoinRound(id)
		if err != nil {
			return nil, 0, fmt.Errorf("unlearn: forgotten client %d: %w", id, err)
		}
		if f < 0 || join < f {
			f = join
		}
	}
	w, err := u.store.Model(f)
	if err != nil {
		return nil, 0, fmt.Errorf("unlearn: backtrack to round %d: %w", f, err)
	}
	return w, f, nil
}

// UnlearnContext runs the full Algorithm 1: backtrack to the forgotten
// clients' earliest join round, then recover rounds F..T−1 using
// estimated gradients for the remaining clients. Recovery stops at the
// next recovered-round boundary with the context's error if ctx is
// cancelled. The history store is never mutated by unlearning, so it
// stays readable — a cancelled request can simply be reissued.
func (u *Unlearner) UnlearnContext(ctx context.Context, forgotten ...history.ClientID) (*Result, error) {
	return u.UnlearnObservedContext(ctx, nil, forgotten...)
}

// UnlearnObservedContext is UnlearnContext with a per-round observer;
// observe receives (round t, w̄ after the round-t update).
func (u *Unlearner) UnlearnObservedContext(ctx context.Context, observe func(t int, recovered []float64), forgotten ...history.ClientID) (*Result, error) {
	wF, f, err := u.Backtrack(forgotten...)
	if err != nil {
		return nil, err
	}
	res, err := u.recover(ctx, wF, f, forgotten, observe)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// dispatchBootstrap calls the user's OnlineBootstrap callback with
// bounded retry and exponential backoff. A nil error with a
// wrong-dimension gradient is reported as an error so the caller can
// fall back offline.
func (u *Unlearner) dispatchBootstrap(ctx context.Context, id history.ClientID, round int, params []float64) ([]float64, error) {
	backoff := u.cfg.BootstrapBackoff
	var lastErr error
	for attempt := 0; attempt <= u.cfg.BootstrapRetries; attempt++ {
		if attempt > 0 {
			u.met.bootstrapRetry.Inc()
			if err := fl.SleepCtx(ctx, backoff); err != nil {
				return nil, err
			}
			backoff *= 2
		} else if err := ctx.Err(); err != nil {
			return nil, err
		}
		fresh, err := u.cfg.OnlineBootstrap(id, round, params)
		if err == nil && len(fresh) != u.store.Dim() {
			err = fmt.Errorf("unlearn: bootstrap client %d round %d: gradient dimension %d, want %d",
				id, round, len(fresh), u.store.Dim())
		}
		if err == nil {
			return fresh, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// clientState is one remaining client's recovery state: an L-BFGS
// pair buffer, the current compact approximation (nil until the
// buffer can build one), and the estimate buffer reused every round so
// the steady-state estimation loop allocates nothing per client-round
// (the aggregator reads est before the next round overwrites it).
//
// The pair columns are aliased, never copied: a client's Δg vectors
// live in its buffer and are built in place (raw is the buffer's Slot
// on refresh rounds), its Δw columns are the pass's, shared by every
// client holding that pair, and the approximation aliases both. An
// approximation is released when a refresh replaces it, which hands
// its Δg storage back to the buffer and its Δw columns back to the
// pass.
type clientState struct {
	pairs  *lbfgs.PairBuffer
	approx *lbfgs.Approx
	raw    []float64 // dense stored direction gᵗᵢ, then Δg (refresh rounds only)
	est    []float64 // corrected, clipped estimate g̃ᵗᵢ
}

// bootScratch holds what the L-BFGS bootstrap window needs across the
// clients of one pass: the shared Δw columns, built once per pre-join
// round and pushed to every client seeded from that round. Seeding
// another client (or benchmarking one) allocates nothing once they
// exist. The columns belong to the pass's f and w_F and never change:
// a client first seen mid-pass seeds from them too.
type bootScratch struct {
	dim int
	wJ  []float64       // model snapshot at round j, for OnlineBootstrap only
	dw  []*lbfgs.Column // dw[f−1−j]: Δw = w_j − w_F, nil until first use
}

func newBootScratch(dim int) *bootScratch { return &bootScratch{dim: dim} }

// dwFor returns the shared column Δw = w_j − w_F, reading round j's
// model on first use; nil when that model is unreadable.
func (sc *bootScratch) dwFor(store history.Reader, j, f int, wF []float64) *lbfgs.Column {
	k := f - 1 - j
	for len(sc.dw) <= k {
		sc.dw = append(sc.dw, nil)
	}
	if sc.dw[k] == nil {
		c := lbfgs.NewColumn(len(wF))
		if err := store.ModelInto(j, c.Vec()); err != nil {
			return nil
		}
		tensor.SubInto(c.Vec(), c.Vec(), wF)
		sc.dw[k] = c
	}
	return sc.dw[k]
}

// seedPairs bootstraps st's pair buffer from pre-join history: rounds
// f−s .. f−1 versus round f (§IV-B). It requires the client to have
// participated in those rounds; gaps can optionally be filled by
// dispatching the historical model to the client when it is still
// online. Each Δg = g_j − g_f is formed in the buffer's Slot, with
// g_f held in st.est until the client's first estimate overwrites
// it. It reports whether at least one pair was pushed.
func (u *Unlearner) seedPairs(ctx context.Context, st *clientState, id history.ClientID, f int, wF []float64, sc *bootScratch) (bool, error) {
	dirF, err := u.store.Direction(f, id)
	if err != nil {
		return false, nil
	}
	gF := st.est
	dirF.DenseInto(gF)
	seeded := false
	for j := max(0, f-u.cfg.PairSize); j < f; j++ {
		dw := sc.dwFor(u.store, j, f, wF)
		if dw == nil {
			continue
		}
		dg := st.pairs.Slot(len(wF))
		if dirJ, err := u.store.Direction(j, id); err == nil {
			dirJ.DenseInto(dg)
			tensor.SubInto(dg, dg, gF)
		} else if u.cfg.OnlineBootstrap != nil {
			if sc.wJ == nil {
				sc.wJ = make([]float64, sc.dim)
			}
			if err := u.store.ModelInto(j, sc.wJ); err != nil {
				continue
			}
			fresh, err := u.dispatchBootstrap(ctx, id, j, sc.wJ)
			if err != nil {
				if ctx.Err() != nil {
					return seeded, ctx.Err()
				}
				// Offline fallback (§IV-B): the client stayed
				// unreachable after the retry budget, so the round
				// contributes no bootstrap pair and recovery proceeds
				// from stored directions alone.
				u.met.bootstrapSkips.Inc()
				continue
			}
			tensor.SubInto(dg, fresh, gF)
		} else {
			continue
		}
		if err := st.pairs.PushSlot(dw); err != nil {
			return seeded, fmt.Errorf("unlearn: bootstrap client %d: %w", id, err)
		}
		seeded = true
	}
	return seeded, nil
}

// recover re-estimates rounds f..T−1 starting from the unlearned model.
func (u *Unlearner) recover(ctx context.Context, wF []float64, f int, forgotten []history.ClientID, observe func(int, []float64)) (*Result, error) {
	p := u.newPass(wF, f, forgotten, observe)
	if err := p.runTo(ctx, u.store.Rounds()); err != nil {
		return nil, err
	}
	return p.finish(), nil
}

// estimate is one client-round estimation outcome, collected by the
// parallel fan-out and folded serially afterwards.
type estimate struct {
	clipped   int
	fallback  bool
	refreshed bool // the round's pair refresh rebuilt the approximation
	err       error
}

// The two stages of a round the fan-out runs.
const (
	stageEstimate  = iota // per client: estimate, then refresh
	stageAggregate        // per element range: FedAvg
)

// minRangeWork is the least aggregation work, in gradient elements
// summed, worth one more fan-out worker: below it the goroutine
// hand-off costs more than the split saves, so small models (a
// TrafficCNN's 1 212 parameters × a fleet) aggregate inline.
const minRangeWork = 1 << 16

// pass is a resumable recovery pass: the entire state of the round loop
// between round boundaries. runTo(ctx, limit) advances it through
// rounds [next, limit); because every per-round computation depends
// only on the immutable round records and on state derived from earlier
// rounds — never on when a round became visible — splitting the loop
// across several runTo calls (chasing a live store's tip) produces
// bit-identical results to one stop-the-world sweep over the final
// store. That property is what lets CommitPass overlap training.
type pass struct {
	u       *Unlearner
	f       int
	next    int // next round to recover
	wF      []float64
	wBar    []float64
	res     *Result
	observe func(int, []float64)

	excluded map[history.ClientID]bool
	states   map[history.ClientID]*clientState
	boot     *bootScratch // lazily built: only needed when bootstrapping

	parallelism int

	// Round-level scratch, reused across every recovered round: the
	// divergence Δw = w̄ₜ − wₜ (read as wₜ, then subtracted in place), the estimation
	// work lists and the aggregation maps. Together with the per-client
	// buffers in clientState this keeps the steady-state hot loop free
	// of per-round heap churn.
	deltaW       []float64 // dw's vector
	aggOut       []float64
	participants []history.ClientID
	remaining    []history.ClientID
	sts          []*clientState
	estimates    []estimate
	grads        map[history.ClientID][]float64
	weights      map[history.ClientID]float64
	fedAvg       bool // the aggregator is FedAvg, aggregated in place by element range

	// dw holds the round's Δw. A refresh round shares it with every
	// client whose buffer takes the pair, so the next round moves to a
	// column of dwPool — every refresh column the pass has made — that
	// no client holds any more.
	dw     *lbfgs.Column
	dwPool []*lbfgs.Column

	// t, refresh, stage, chunk and inv are set per fan-out; they are
	// hoisted so runChunk (a method, shared by all workers) can see
	// them.
	t       int
	refresh bool
	stage   int
	chunk   int
	inv     float64 // FedAvg's 1/Σw for the aggregate stage

	// The fan-out is owned by the pass so a steady-state round allocates
	// nothing at any parallelism: workers[w] is bound once to
	// runChunk(w) and started with a bare go statement, wg is reused
	// every round. Workers live only inside a fan-out — an abandoned
	// pass leaves no goroutine behind.
	wg      sync.WaitGroup
	workers []func()
}

// newPass prepares a recovery pass over rounds f..; wF is the
// backtracked model w_F, which the pass never writes and returns as
// Result.Unlearned. The pass does not run until runTo is called.
func (u *Unlearner) newPass(wF []float64, f int, forgotten []history.ClientID, observe func(int, []float64)) *pass {
	excluded := make(map[history.ClientID]bool, len(forgotten))
	sortedForgotten := append([]history.ClientID(nil), forgotten...)
	slices.Sort(sortedForgotten)
	for _, id := range sortedForgotten {
		excluded[id] = true
	}

	dim := u.store.Dim()
	parallelism := u.cfg.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}

	u.met.backtrackRound.Set(float64(f))
	u.met.backtrackDepth.Set(float64(u.store.Rounds() - f))

	_, fedAvg := u.cfg.Aggregator.(fl.FedAvg)
	dw := lbfgs.NewColumn(dim)
	p := &pass{
		u:    u,
		f:    f,
		next: f,
		wF:   wF,
		wBar: tensor.CloneVec(wF),
		res: &Result{
			Unlearned:      wF,
			BacktrackRound: f,
			Forgotten:      sortedForgotten,
		},
		observe:     observe,
		excluded:    excluded,
		states:      make(map[history.ClientID]*clientState),
		parallelism: parallelism,
		deltaW:      dw.Vec(),
		aggOut:      make([]float64, dim),
		grads:       make(map[history.ClientID][]float64),
		weights:     make(map[history.ClientID]float64),
		fedAvg:      fedAvg,
		dw:          dw,
		dwPool:      []*lbfgs.Column{dw},
	}
	if parallelism > 1 {
		p.workers = make([]func(), parallelism)
		for w := range p.workers {
			p.workers[w] = func() {
				defer p.wg.Done()
				p.runChunk(w)
			}
		}
	}
	return p
}

// stateFor materialises (or returns) a remaining client's recovery
// state, bootstrapping its L-BFGS pairs from pre-join history on first
// sight. Bootstrap reads only rounds < f, which are immutable, so the
// result is independent of when during the pass the client first
// appears.
func (p *pass) stateFor(ctx context.Context, id history.ClientID) (*clientState, error) {
	if st, ok := p.states[id]; ok {
		return st, nil
	}
	u := p.u
	pb, err := lbfgs.NewPairBuffer(u.cfg.PairSize)
	if err != nil {
		return nil, err
	}
	st := &clientState{pairs: pb, est: make([]float64, u.store.Dim())}
	p.states[id] = st
	if u.cfg.DisableBootstrap {
		return st, nil
	}
	if p.boot == nil {
		p.boot = newBootScratch(u.store.Dim())
	}
	seeded, err := u.seedPairs(ctx, st, id, p.f, p.wF, p.boot)
	if err != nil {
		return nil, err
	}
	if seeded {
		p.res.BootstrappedClients++
		u.met.bootstraps.Inc()
		if a, err := st.pairs.Build(); err == nil {
			st.approx = a
		}
	}
	return st, nil
}

// estimateOne computes the i-th remaining client's corrected gradient
// estimate for the round under estimation (p.t) and, on a refresh
// round, refreshes that client's pairs right after: both touch only
// the client's own state and the round's read-only Δw, so they run
// inside the fan-out. A method, not a per-round closure: a closure
// built per round would be a heap allocation each iteration (it
// escapes through the go statements in fanOut).
func (p *pass) estimateOne(i int) {
	id := p.remaining[i]
	dir, err := p.u.store.Direction(p.t, id)
	if err != nil {
		p.estimates[i].err = fmt.Errorf("unlearn: round %d client %d: %w", p.t, id, err)
		return
	}
	st := p.sts[i]
	if p.refresh {
		st.raw = st.pairs.Slot(len(p.deltaW))
	}
	e := st.estimate(dir, p.deltaW, p.refresh, p.u.cfg.ClipThreshold, p.u.cfg.ClipMode)
	if p.refresh {
		e.refreshed = st.refresh(p.dw)
	}
	p.estimates[i] = e
}

// estimate fills st.est with the clipped estimate
//
//	ḡᵗᵢ = gᵗᵢ + H̃ᵗᵢ·(w̄ₜ − wₜ)        (eq. 6)
//	g̃ᵗᵢ = ḡᵗᵢ / max(1, |ḡᵗᵢ|/L)     (eq. 7)
//
// in two sweeps over the client's pair columns (lbfgs.EstimateInto):
// the projections of Δw, then product, packed direction, finiteness
// test and elementwise clip fused per element, est written once. The
// norm clip needs the finished vector, so that mode (and ClipOff) runs
// the sweep unclipped and ClipCount afterwards. Without a usable
// approximation — none built yet, or a non-finite product — the
// estimate is the raw stored direction. Each client owns its Approx,
// so the scratch-backed EstimateInto is safe under the fan-out.
func (st *clientState) estimate(dir *sign.Direction, deltaW []float64, refresh bool, l float64, mode ClipMode) estimate {
	if refresh {
		// On refresh rounds raw is the pair buffer's Slot, and the
		// refresh right after this estimate reads the raw dense
		// direction from it; skip expanding it on every other round.
		dir.DenseInto(st.raw)
	}
	fused := mode != ClipNorm && mode != ClipOff
	if st.approx != nil {
		limit := math.Inf(1)
		if fused {
			limit = l
		}
		if clipped, err := st.approx.EstimateInto(st.est, deltaW, dir, limit); err == nil {
			if !fused {
				clipped = ClipCount(st.est, l, mode)
			}
			return estimate{clipped: clipped}
		}
	}
	dir.DenseInto(st.est)
	return estimate{clipped: ClipCount(st.est, l, mode), fallback: true}
}

// refresh is the periodic pair refresh (§IV-B), replacing stale pairs
// with the divergence observed on the recovered trajectory: it turns
// raw into Δg = est − raw in place, pushes it with the round's shared
// Δw, and swaps in the rebuilt approximation, releasing the one it
// replaces. A failed Build keeps the previous approximation. It
// reports whether the approximation was rebuilt.
func (st *clientState) refresh(dw *lbfgs.Column) bool {
	tensor.SubInto(st.raw, st.est, st.raw)
	if st.pairs.PushSlot(dw) != nil {
		return false
	}
	a, err := st.pairs.Build()
	if err != nil {
		return false
	}
	if st.approx != nil {
		st.approx.Release()
	}
	st.approx = a
	return true
}

// runChunk is fan-out worker w's share of the stage: the w-th
// contiguous chunk of the remaining clients, or of the model's
// elements.
func (p *pass) runChunk(w int) {
	lo := w * p.chunk
	switch p.stage {
	case stageEstimate:
		for i := lo; i < min(lo+p.chunk, len(p.remaining)); i++ {
			p.estimateOne(i)
		}
	case stageAggregate:
		fl.FedAvg{}.AggregateRange(p.aggOut, p.remaining, p.grads, p.weights, p.inv, lo, min(lo+p.chunk, len(p.aggOut)))
	}
}

// fanOut runs stage over n items split into at most workers contiguous
// chunks, one per pre-bound worker, inline when that is one chunk.
// Every item is computed exactly once by the same code whatever the
// split, so results are bit-identical at any parallelism.
func (p *pass) fanOut(stage, n, workers int) {
	if n == 0 {
		return
	}
	p.stage = stage
	p.chunk = (n + workers - 1) / workers
	chunks := (n + p.chunk - 1) / p.chunk
	if chunks == 1 {
		p.runChunk(0)
		return
	}
	p.wg.Add(chunks)
	for w := 0; w < chunks; w++ {
		go p.workers[w]()
	}
	p.wg.Wait()
}

// aggregate combines the round's estimates into the global update.
// FedAvg writes into p.aggOut with no allocation, split over
// contiguous element ranges when the round has enough work for more
// than one worker; each element still sums the clients in sorted-ID
// order and then scales by 1/Σw — the bits of FedAvg.AggregateInto.
// remaining is sorted (ParticipantsInto sorts and the exclusion filter
// preserves order) and matches the grads keys exactly, so this sums in
// the same order as Aggregate. Any other rule runs its Aggregate.
func (p *pass) aggregate() ([]float64, error) {
	if p.fedAvg {
		return p.aggOut, p.aggregateRanges(rangeWorkers(len(p.aggOut), len(p.remaining), p.parallelism))
	}
	return p.u.cfg.Aggregator.Aggregate(p.grads, p.weights)
}

// rangeWorkers is how many element ranges a FedAvg round of clients
// gradients of length dim is worth splitting into: one per
// minRangeWork of it, at least one and at most parallelism.
func rangeWorkers(dim, clients, parallelism int) int {
	return max(1, min(parallelism, dim*clients/minRangeWork))
}

// aggregateRanges is FedAvg.AggregateInto into p.aggOut, its elements
// split over workers contiguous ranges on the fan-out.
func (p *pass) aggregateRanges(workers int) error {
	inv, err := fl.FedAvg{}.InvTotal(len(p.aggOut), p.remaining, p.grads, p.weights)
	if err != nil {
		return err
	}
	p.inv = inv
	p.fanOut(stageAggregate, len(p.aggOut), workers)
	return nil
}

// nextDW moves the pass off a Δw column that clients now hold, onto a
// pooled one none does, or a new one.
func (p *pass) nextDW() {
	for _, c := range p.dwPool {
		if !c.Held() {
			p.dw, p.deltaW = c, c.Vec()
			return
		}
	}
	p.dw = lbfgs.NewColumn(len(p.deltaW))
	p.deltaW = p.dw.Vec()
	p.dwPool = append(p.dwPool, p.dw)
}

// runTo advances the pass through rounds [p.next, limit). It may be
// called repeatedly with growing limits; a context error leaves the
// pass at the last completed round boundary, resumable or discardable.
func (p *pass) runTo(ctx context.Context, limit int) error {
	u := p.u
	for t := p.next; t < limit; t++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		roundSpan := u.met.recoverRound.Start()
		var err error
		p.participants, err = u.store.ParticipantsInto(t, p.participants)
		if err != nil {
			return fmt.Errorf("unlearn: round %d: %w", t, err)
		}
		if err := u.store.ModelInto(t, p.deltaW); err != nil {
			return fmt.Errorf("unlearn: round %d: %w", t, err)
		}
		tensor.SubInto(p.deltaW, p.wBar, p.deltaW)

		p.refresh = u.cfg.RefreshEvery > 0 && t > p.f && (t-p.f)%u.cfg.RefreshEvery == 0
		refreshed := false

		p.remaining = p.remaining[:0]
		for _, id := range p.participants {
			if !p.excluded[id] {
				p.remaining = append(p.remaining, id)
			}
		}
		remaining := p.remaining
		// Materialise states serially (stateFor mutates the map and
		// may bootstrap); the per-client estimation below is then
		// embarrassingly parallel and bit-deterministic.
		if cap(p.sts) < len(remaining) {
			p.sts = make([]*clientState, len(remaining))
		} else {
			p.sts = p.sts[:len(remaining)]
		}
		sts := p.sts
		for i, id := range remaining {
			if sts[i], err = p.stateFor(ctx, id); err != nil {
				return err
			}
		}
		estimateSpan := u.met.estimate.Start()
		if cap(p.estimates) < len(remaining) {
			p.estimates = make([]estimate, len(remaining))
		} else {
			p.estimates = p.estimates[:len(remaining)]
			clear(p.estimates)
		}
		// Each client is estimated (and refreshed) exactly once with its
		// own buffers, one goroutine per worker, no goroutine-per-client
		// churn.
		p.t = t
		p.fanOut(stageEstimate, len(remaining), min(p.parallelism, len(remaining)))
		if p.dw.Held() {
			p.nextDW()
		}
		estimateDur := estimateSpan.End()

		clear(p.grads)
		clear(p.weights)
		roundFallbacks, roundClips := 0, 0
		for i, id := range remaining {
			e := p.estimates[i]
			if e.err != nil {
				return e.err
			}
			if e.fallback {
				p.res.DegenerateFallbacks++
				roundFallbacks++
			}
			refreshed = refreshed || e.refreshed
			roundClips += e.clipped
			p.grads[id] = sts[i].est
			w, err := u.store.Weight(t, id)
			if err != nil {
				return fmt.Errorf("unlearn: round %d client %d: %w", t, id, err)
			}
			p.weights[id] = w
		}
		if refreshed {
			p.res.PairRefreshes++
			u.met.pairRefreshes.Inc()
		}
		u.met.fallbacks.Add(int64(roundFallbacks))
		u.met.clips.Add(int64(roundClips))

		var aggDur time.Duration
		if len(p.grads) > 0 {
			aggSpan := u.met.aggregate.Start()
			agg, err := p.aggregate()
			if err != nil {
				return fmt.Errorf("unlearn: round %d: %w", t, err)
			}
			tensor.AxpyInPlace(p.wBar, -u.cfg.LearningRate, agg)
			aggDur = aggSpan.End()
		}
		p.res.RecoveredRounds++
		u.met.recoveredRounds.Inc()
		totalDur := roundSpan.End()
		if u.cfg.Telemetry.Observing() {
			u.cfg.Telemetry.Emit(telemetry.Event{
				Scope: "unlearn", Name: "recover_round", Round: t,
				Fields: []telemetry.Field{
					telemetry.F("remaining", float64(len(remaining))),
					telemetry.F("fallbacks", float64(roundFallbacks)),
					telemetry.F("clipped", float64(roundClips)),
					telemetry.D("estimate", estimateDur),
					telemetry.D("aggregate", aggDur),
					telemetry.D("total", totalDur),
				},
			})
		}
		if p.observe != nil {
			p.observe(t, tensor.CloneVec(p.wBar))
		}
		p.next = t + 1
	}
	return nil
}

// finish seals the pass and returns its Result. The pass must not be
// advanced afterwards.
func (p *pass) finish() *Result {
	p.res.Params = p.wBar
	return p.res
}
