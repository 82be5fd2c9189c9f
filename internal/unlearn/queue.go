package unlearn

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"fuiov/internal/history"
	"fuiov/internal/telemetry"
)

// Queue sentinels, wrapped in the errors the queue API returns.
var (
	// ErrQueueFull reports a submission refused by admission control.
	ErrQueueFull = errors.New("unlearn queue full")
	// ErrQueueClosed reports a submission to (or a request aborted by) a
	// closed queue.
	ErrQueueClosed = errors.New("unlearn queue closed")
	// ErrUnknownRequest reports a status/wait lookup for a request ID
	// the queue never issued.
	ErrUnknownRequest = errors.New("unknown unlearn request")
)

// maxPending bounds the requests waiting for the next pass (admission
// control): further submissions fail with ErrQueueFull.
const maxPending = 64

// RequestState is the lifecycle state of a queued unlearning request.
type RequestState string

// Request lifecycle: pending (waiting for the next pass) → running
// (folded into the in-flight pass) → done or failed.
const (
	StatePending RequestState = "pending"
	StateRunning RequestState = "running"
	StateDone    RequestState = "done"
	StateFailed  RequestState = "failed"
)

// RequestInfo is a point-in-time snapshot of a queued request.
type RequestInfo struct {
	// ID is the queue-issued request identifier ("u-<seq>").
	ID string
	// Clients is the sorted, deduplicated set of clients to forget.
	Clients []history.ClientID
	// State is the request's lifecycle state.
	State RequestState
	// Result is the shared result of the coalesced pass that served
	// this request, set when State is StateDone. It is nil for a
	// trivially-satisfied request (every named client was already
	// forgotten by an earlier pass).
	Result *Result
	// Err is the failure cause, set when State is StateFailed.
	Err error
}

// QueueCommit is what a finished pass hands to the CommitFunc: the
// recovery result and the rewritten history store the caller must swap
// into the engine before releasing its exclusion.
type QueueCommit struct {
	// Result is the coalesced pass's recovery result.
	Result *Result
	// Store is the rewritten post-unlearning history store.
	Store *history.Store
}

// CommitFunc performs the exclusion-guarded tail of a pass. The queue
// worker calls it once per pass; the implementation must stop all
// writes to the history store (typically by taking the engine lock),
// call finish — which runs the final catch-up and returns the result
// and rewritten store — and, on success, install the new store and
// recovered parameters before releasing the exclusion. Returning an
// error (or an error from finish) fails every request in the pass.
type CommitFunc func(finish func() (*QueueCommit, error)) error

// QueueConfig parameterises an unlearning request queue.
type QueueConfig struct {
	// Store returns the current live history store. It is re-read at
	// the start of every pass so the queue follows commit-time store
	// swaps; it must be safe to call from the queue's worker and from
	// submitters.
	Store func() *history.Store
	// Config is the unlearning configuration every pass runs with.
	Config Config
	// Commit installs a finished pass; see CommitFunc. Required.
	Commit CommitFunc
	// StartPaused creates the queue with its worker paused so several
	// submissions can pile up and provably coalesce into one pass;
	// call Start to begin processing. Used by benchmarks and tests.
	StartPaused bool
	// Telemetry, when non-nil, receives unlearn.queue.* metrics.
	Telemetry *telemetry.Registry
}

// queueMetrics caches the unlearn.queue.* handles (nil-safe no-ops
// when telemetry is off).
type queueMetrics struct {
	depth     *telemetry.Gauge
	inFlight  *telemetry.Gauge
	coalesced *telemetry.Counter
	deduped   *telemetry.Counter
	rejected  *telemetry.Counter
	passes    *telemetry.Counter
	pass      *telemetry.Timer
}

func newQueueMetrics(r *telemetry.Registry) queueMetrics {
	return queueMetrics{
		depth:     r.Gauge(telemetry.UnlearnQueueDepth),
		inFlight:  r.Gauge(telemetry.UnlearnQueueInFlight),
		coalesced: r.Counter(telemetry.UnlearnQueueCoalesced),
		deduped:   r.Counter(telemetry.UnlearnQueueDeduped),
		rejected:  r.Counter(telemetry.UnlearnQueueRejected),
		passes:    r.Counter(telemetry.UnlearnQueuePasses),
		pass:      r.Timer(telemetry.UnlearnQueuePass),
	}
}

// request is the queue's internal per-request record.
type request struct {
	id      string
	clients []history.ClientID
	state   RequestState
	res     *Result
	err     error
	done    chan struct{}
}

// Queue is the concurrent unlearning service: an admission-controlled
// request queue whose single worker folds every request waiting when a
// pass starts into one coalesced CommitPass — K requests cost one
// backtrack to min(F_k) and one recovery, not K. The pass chases the
// live store with Advance while training keeps running, then commits
// through the configured CommitFunc's short exclusion window.
//
// Results are bit-identical to one stop-the-world BeginCommit +
// Commit over the union of the batch's clients on the final store
// (see CommitPass).
type Queue struct {
	cfg QueueConfig
	met queueMetrics

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond
	seq     int
	pending []*request
	running []*request
	byID    map[string]*request
	paused  bool
	closed  bool
	passes  int64
	merged  int64
	deduped int64
}

// NewQueue validates the configuration and starts the queue's worker
// goroutine. Close releases it.
func NewQueue(cfg QueueConfig) (*Queue, error) {
	if cfg.Store == nil {
		return nil, errors.New("unlearn: queue needs a Store accessor")
	}
	if cfg.Commit == nil {
		return nil, errors.New("unlearn: queue needs a Commit func")
	}
	cfg.Config = cfg.Config.withDefaults()
	if err := cfg.Config.validate(); err != nil {
		return nil, err
	}
	q := &Queue{
		cfg:    cfg,
		met:    newQueueMetrics(cfg.Telemetry),
		byID:   make(map[string]*request),
		paused: cfg.StartPaused,
	}
	q.cond = sync.NewCond(&q.mu)
	q.ctx, q.cancel = context.WithCancel(context.Background())
	q.wg.Add(1)
	go q.worker()
	return q, nil
}

// Start unpauses a queue created with StartPaused. It is a no-op on a
// running queue.
func (q *Queue) Start() {
	q.mu.Lock()
	q.paused = false
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Submit enqueues a request to forget the given clients and returns
// its request ID. If an already-queued (pending or running) request
// covers every named client, that request's ID is returned instead of
// enqueueing a duplicate pass. Clients unknown to the current store
// are rejected with history.ErrUnknownClient; a full queue rejects
// with ErrQueueFull.
func (q *Queue) Submit(clients ...history.ClientID) (string, error) {
	if len(clients) == 0 {
		return "", errors.New("unlearn: no clients to forget")
	}
	set := slices.Clone(clients)
	slices.Sort(set)
	set = slices.Compact(set)
	// Validate against the live store outside the queue lock: the
	// store accessor may itself lock the engine.
	store := q.cfg.Store()
	if store == nil {
		return "", errors.New("unlearn: queue store accessor returned nil")
	}
	for _, id := range set {
		if _, err := store.MembershipOf(id); err != nil {
			return "", fmt.Errorf("unlearn: forgotten client %d: %w", id, err)
		}
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return "", ErrQueueClosed
	}
	// Dedup: a request whose clients are all already covered by a
	// pending or running request rides on that request.
	for _, r := range q.running {
		if covers(r.clients, set) {
			q.deduped++
			q.met.deduped.Inc()
			return r.id, nil
		}
	}
	for _, r := range q.pending {
		if covers(r.clients, set) {
			q.deduped++
			q.met.deduped.Inc()
			return r.id, nil
		}
	}
	if len(q.pending) >= maxPending {
		q.met.rejected.Inc()
		return "", fmt.Errorf("%w: %d requests pending", ErrQueueFull, len(q.pending))
	}
	q.seq++
	r := &request{
		id:      fmt.Sprintf("u-%d", q.seq),
		clients: set,
		state:   StatePending,
		done:    make(chan struct{}),
	}
	q.pending = append(q.pending, r)
	q.byID[r.id] = r
	q.met.depth.Set(float64(len(q.pending)))
	q.cond.Broadcast()
	return r.id, nil
}

// covers reports whether the sorted set have contains every element of
// the sorted set want.
func covers(have, want []history.ClientID) bool {
	for _, id := range want {
		if _, ok := slices.BinarySearch(have, id); !ok {
			return false
		}
	}
	return true
}

// Status returns a snapshot of the request with the given ID.
func (q *Queue) Status(id string) (RequestInfo, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	r, ok := q.byID[id]
	if !ok {
		return RequestInfo{}, fmt.Errorf("%w: %q", ErrUnknownRequest, id)
	}
	return r.info(), nil
}

func (r *request) info() RequestInfo {
	return RequestInfo{
		ID:      r.id,
		Clients: slices.Clone(r.clients),
		State:   r.state,
		Result:  r.res,
		Err:     r.err,
	}
}

// Wait blocks until the request completes (done or failed) or the
// context expires, then returns its final snapshot.
func (q *Queue) Wait(ctx context.Context, id string) (RequestInfo, error) {
	q.mu.Lock()
	r, ok := q.byID[id]
	q.mu.Unlock()
	if !ok {
		return RequestInfo{}, fmt.Errorf("%w: %q", ErrUnknownRequest, id)
	}
	select {
	case <-ctx.Done():
		return RequestInfo{}, ctx.Err()
	case <-r.done:
	}
	return q.Status(id)
}

// QueueStats is a point-in-time summary of queue activity.
type QueueStats struct {
	// Pending is the number of requests waiting for the next pass.
	Pending int
	// InFlight is the number of requests folded into the running pass.
	InFlight int
	// Passes counts coalesced passes completed (successfully or not).
	Passes int64
	// Coalesced counts requests that shared a pass beyond the first
	// (K requests in one pass add K−1).
	Coalesced int64
	// Deduped counts submissions answered with an existing request ID.
	Deduped int64
}

// Stats returns current queue counters.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueStats{
		Pending:   len(q.pending),
		InFlight:  len(q.running),
		Passes:    q.passes,
		Coalesced: q.merged,
		Deduped:   q.deduped,
	}
}

// Close stops the queue: the in-flight pass (if any) is cancelled,
// pending requests fail with ErrQueueClosed, and the worker exits.
// Close must not be called while holding the lock the CommitFunc
// acquires, or the worker cannot drain. It is idempotent.
func (q *Queue) Close() error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return nil
	}
	q.closed = true
	q.mu.Unlock()
	q.cancel()
	q.cond.Broadcast()
	q.wg.Wait()
	return nil
}

// worker is the queue's single pass-execution loop.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for !q.closed && (q.paused || len(q.pending) == 0) {
			q.cond.Wait()
		}
		if q.closed {
			for _, r := range q.pending {
				r.state = StateFailed
				r.err = ErrQueueClosed
				close(r.done)
			}
			q.pending = nil
			q.met.depth.Set(0)
			q.mu.Unlock()
			return
		}
		// Coalesce: everything waiting now becomes one pass.
		batch := q.pending
		q.pending = nil
		for _, r := range batch {
			r.state = StateRunning
		}
		q.running = batch
		if len(batch) > 1 {
			q.merged += int64(len(batch) - 1)
			q.met.coalesced.Add(int64(len(batch) - 1))
		}
		q.met.depth.Set(0)
		q.met.inFlight.Set(float64(len(batch)))
		q.mu.Unlock()

		res, err := q.runPass(batch)

		q.mu.Lock()
		for _, r := range batch {
			if err != nil {
				r.state = StateFailed
				r.err = err
			} else {
				r.state = StateDone
				r.res = res
			}
			close(r.done)
		}
		q.running = nil
		q.passes++
		q.met.inFlight.Set(0)
		q.mu.Unlock()
		q.met.passes.Inc()
	}
}

// runPass executes one coalesced pass over the union of the batch's
// client sets: one backtrack to the earliest join round, one recovery
// chasing the live store, one commit under the CommitFunc's exclusion.
func (q *Queue) runPass(batch []*request) (*Result, error) {
	span := q.met.pass.Start()
	defer span.End()

	store := q.cfg.Store()
	if store == nil {
		return nil, errors.New("unlearn: queue store accessor returned nil")
	}
	set := make(map[history.ClientID]bool)
	for _, r := range batch {
		for _, id := range r.clients {
			set[id] = true
		}
	}
	// Drop clients an earlier pass already forgot (the committed store
	// no longer knows them) — their requests are trivially satisfied.
	union := make([]history.ClientID, 0, len(set))
	for id := range set {
		if _, err := store.MembershipOf(id); err == nil {
			union = append(union, id)
		}
	}
	if len(union) == 0 {
		return nil, nil
	}
	slices.Sort(union)

	u, err := New(store, q.cfg.Config)
	if err != nil {
		return nil, err
	}
	cp, err := u.BeginCommit(union...)
	if err != nil {
		return nil, err
	}
	// Chase the store's tip without any exclusion until the lag stops
	// shrinking (typically 0 when recovery outpaces training); the
	// commit below then only has the residual lag to catch up on.
	prev := -1
	for {
		lag, err := cp.Advance(q.ctx)
		if err != nil {
			return nil, err
		}
		if lag == 0 || (prev >= 0 && lag >= prev) {
			break
		}
		prev = lag
	}
	var out *Result
	err = q.cfg.Commit(func() (*QueueCommit, error) {
		res, ns, err := cp.Commit(q.ctx)
		if err != nil {
			return nil, err
		}
		out = res
		return &QueueCommit{Result: res, Store: ns}, nil
	})
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, errors.New("unlearn: queue CommitFunc returned without calling finish")
	}
	return out, nil
}
