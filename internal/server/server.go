// Package server is the networked RSU round coordinator: the paper's
// road-side unit as an actual HTTP service instead of an in-process
// loop. Vehicles (client agents, see internal/agent) fetch the global
// model, compute gradients locally and upload them over HTTP; the
// coordinator collects uploads in wall-clock windows, enforces the
// fl.FaultPolicy quorum against real time, and runs every round as an
// fl.RoundStream — the round the deterministic engine's own loop runs,
// each upload added as it arrives, one commit when the window resolves
// — so an HTTP-served schedule produces bit-identical models to the
// same schedule run in-process.
//
// The coordinator is deliberately a transport shim. It owns no
// learning logic: aggregation order, the eq. 2 update, history
// recording and unlearning all happen inside the engine and
// internal/unlearn, exactly as in a simulation. What it adds is the
// serving boundary — framing, scheduling-by-wall-clock, error
// mapping, and per-endpoint telemetry. The wire protocol is specified
// in PROTOCOL.md; a test diffs the endpoints against it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/telemetry"
	"fuiov/internal/unlearn"
)

// ErrClosed marks requests that arrive after Close.
var ErrClosed = errors.New("server: coordinator closed")

// Config parameterises a Coordinator.
type Config struct {
	// Engine is the deterministic round engine the coordinator fronts.
	// Its registered clients are the server's client registry (only
	// their IDs matter server-side; remote vehicles own the data), its
	// FaultPolicy supplies quorum and deadline semantics, and its
	// Store receives every committed round. Required.
	Engine *fl.Simulation
	// Schedule decides which registered clients are expected each
	// round (the quorum denominator). Defaults to the engine's
	// schedule, so a coordinator built over a trace-driven simulation
	// expects exactly the in-coverage vehicles.
	Schedule fl.Schedule
	// RoundWindow is the wall-clock collection window: a round that
	// has not gathered every scheduled upload when the window closes
	// is resolved by quorum. 0 falls back to the engine policy's
	// ClientTimeout; if that is also 0 the coordinator waits for every
	// scheduled client (pure barrier, no deadline).
	RoundWindow time.Duration
	// MaxRounds ends training after this many rounds: later uploads
	// get 410 and /v1/status reports done. 0 = unbounded.
	MaxRounds int
	// SkipOnQuorumFailure makes an under-quorum window skip the round
	// (fl.Simulation.SkipRound) and move on, instead of leaving the
	// round open for re-collection. This is the IoV-realistic setting:
	// a coverage gap should not stall the fleet.
	SkipOnQuorumFailure bool
	// Unlearn parameterises /v1/unlearn, sync requests and the queue
	// alike. LearningRate defaults to the engine's and Telemetry to
	// the coordinator's; the store is always the engine's.
	Unlearn unlearn.Config
	// Telemetry, when non-nil, receives per-endpoint request counters
	// and latency timers plus round-window metrics (see
	// internal/telemetry names.go, server.*). Nil disables
	// instrumentation at ~zero cost.
	Telemetry *telemetry.Registry
}

// coordMetrics caches the coordinator's telemetry handles (nil/no-op
// when telemetry is disabled).
type coordMetrics struct {
	requests      *telemetry.Counter
	requestErrors *telemetry.Counter
	uploadBytes   *telemetry.Counter
	modelBytes    *telemetry.Counter
	rounds        *telemetry.Counter
	roundsExpired *telemetry.Counter
	roundsFailed  *telemetry.Counter
	lateUploads   *telemetry.Counter
	unlearns      *telemetry.Counter
	denseUploads  *telemetry.Counter
	signUploads   *telemetry.Counter
	roundWait     *telemetry.Timer
	openWindow    *telemetry.Timer
}

func newCoordMetrics(r *telemetry.Registry) coordMetrics {
	return coordMetrics{
		requests:      r.Counter(telemetry.ServerRequests),
		requestErrors: r.Counter(telemetry.ServerRequestErrors),
		uploadBytes:   r.Counter(telemetry.ServerUploadBytes),
		modelBytes:    r.Counter(telemetry.ServerModelBytes),
		rounds:        r.Counter(telemetry.ServerRoundsServed),
		roundsExpired: r.Counter(telemetry.ServerRoundsExpired),
		roundsFailed:  r.Counter(telemetry.ServerRoundsFailed),
		lateUploads:   r.Counter(telemetry.ServerLateUploads),
		unlearns:      r.Counter(telemetry.ServerUnlearns),
		denseUploads:  r.Counter(telemetry.ServerDenseUploads),
		signUploads:   r.Counter(telemetry.ServerSignUploads),
		roundWait:     r.Timer(telemetry.ServerRoundWait),
		openWindow:    r.Timer(telemetry.ServerOpenWindow),
	}
}

// roundState is one round's wall-clock collection window. It buffers
// nothing itself: each accepted upload goes straight into the engine's
// open round (stream), and only the responder count is tracked.
type roundState struct {
	t          int
	openedAt   time.Time
	scheduled  map[history.ClientID]bool
	stream     *fl.RoundStream
	responders int
	timer      *time.Timer
	resolved   bool
	skipped    bool
	err        error
	// done is closed at resolution; blocked uploaders wake on it and
	// read the fields above (written before the close, so the channel
	// provides the happens-before edge).
	done chan struct{}
}

// Coordinator serves the RSU round protocol over HTTP. Create one
// with New, mount it on any http.Server (it implements http.Handler),
// and point client agents at it. All engine access is serialised
// internally; handlers are safe for concurrent use.
type Coordinator struct {
	cfg        Config
	window     time.Duration
	registered map[history.ClientID]bool
	dim        int
	streaming  bool
	mux        *http.ServeMux
	met        coordMetrics
	queue      *unlearn.Queue
	// frames recycles dense upload buffers between rounds.
	frames framePool

	mu       sync.Mutex
	cur      *roundState
	closed   bool
	unlearns int
}

// emptyFastForward bounds how many consecutive empty-schedule rounds
// the coordinator auto-commits while opening a round, so a schedule
// that is empty forever (and no MaxRounds) cannot spin the server.
// Past the cap the next empty round opens a normal window and advances
// at wall-clock pace.
const emptyFastForward = 4096

// New creates a coordinator over a deterministic engine.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: nil engine")
	}
	ecfg := cfg.Engine.Config()
	if cfg.Schedule == nil {
		cfg.Schedule = ecfg.Schedule
	}
	if cfg.MaxRounds < 0 {
		return nil, fmt.Errorf("server: negative max rounds %d", cfg.MaxRounds)
	}
	if cfg.RoundWindow < 0 {
		return nil, fmt.Errorf("server: negative round window %v", cfg.RoundWindow)
	}
	window := cfg.RoundWindow
	if window == 0 && ecfg.FaultPolicy != nil {
		window = ecfg.FaultPolicy.ClientTimeout
	}
	if cfg.Unlearn.LearningRate == 0 {
		cfg.Unlearn.LearningRate = ecfg.LearningRate
	}
	if cfg.Unlearn.Telemetry == nil {
		cfg.Unlearn.Telemetry = cfg.Telemetry
	}
	c := &Coordinator{
		cfg:        cfg,
		window:     window,
		registered: make(map[history.ClientID]bool),
		dim:        cfg.Engine.Template().NumParams(),
		streaming:  ecfg.Streaming,
		met:        newCoordMetrics(cfg.Telemetry),
	}
	for _, cl := range cfg.Engine.Clients() {
		c.registered[cl.ID] = true
	}
	if ecfg.Store != nil {
		// The async unlearning service: requests queue here, coalesce
		// into shared recovery passes, and commit through the engine
		// lock while rounds keep being served (see internal/unlearn
		// Queue/CommitPass and DESIGN.md §16).
		q, err := unlearn.NewQueue(unlearn.QueueConfig{
			Store:     c.engineStore,
			Config:    cfg.Unlearn,
			Commit:    c.commitUnlearnPass,
			Telemetry: cfg.Telemetry,
		})
		if err != nil {
			return nil, err
		}
		c.queue = q
	}
	c.mux = http.NewServeMux()
	for _, rt := range routeTable {
		c.mux.Handle(rt.pattern, c.instrument(rt.timer, func(w http.ResponseWriter, r *http.Request) { rt.h(c, w, r) }))
	}
	return c, nil
}

// routeTable is every method+pattern the coordinator serves, in the
// order PROTOCOL.md documents them, each with its own latency timer.
// A test diffs the patterns against the document so the protocol spec
// cannot drift from the implementation.
var routeTable = []struct {
	pattern, timer string
	h              func(*Coordinator, http.ResponseWriter, *http.Request)
}{
	{"POST /v1/round", telemetry.ServerHTTPRound, (*Coordinator).handleRound},
	{"POST /v1/unlearn", telemetry.ServerHTTPUnlearn, (*Coordinator).handleUnlearn},
	{"GET /v1/unlearn/{id}", telemetry.ServerHTTPUnlearnStatus, (*Coordinator).handleUnlearnStatus},
	{"GET /v1/model/{round}", telemetry.ServerHTTPModel, (*Coordinator).handleModel},
	{"GET /v1/status", telemetry.ServerHTTPStatus, (*Coordinator).handleStatus},
	{"GET /v1/metrics", telemetry.ServerHTTPMetrics, (*Coordinator).handleMetrics},
}

// engineStore reads the engine's current history store under the
// coordinator lock — the queue's view of "the live store", which moves
// when a pass commits.
func (c *Coordinator) engineStore() *history.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.Engine.Config().Store
}

// commitUnlearnPass is the queue's CommitFunc: it takes the engine
// lock (stopping round commits for the duration of the pass's final
// catch-up only), finishes the pass, and installs the rewritten store
// and recovered parameters. The superseded store is left open — a
// driver that captured it (e.g. to Save at shutdown) keeps a readable
// frozen history.
func (c *Coordinator) commitUnlearnPass(finish func() (*unlearn.QueueCommit, error)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	qc, err := finish()
	if err != nil {
		return err
	}
	qc.Store.SetTelemetry(c.cfg.Telemetry)
	if err := c.cfg.Engine.SwapStore(qc.Store); err != nil {
		return err
	}
	if err := c.cfg.Engine.SetParams(qc.Result.Params); err != nil {
		return err
	}
	c.unlearns++
	c.met.unlearns.Inc()
	return nil
}

// ServeHTTP implements http.Handler, so a Coordinator can be mounted
// directly on an http.Server (HTTP/2 is negotiated automatically when
// the server is configured with TLS; the protocol is plain
// request/response and works identically over HTTP/1.1).
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// Close shuts the coordinator down: the open collection window (if
// any) is resolved with ErrClosed so blocked uploaders return, the
// unlearning queue drains (pending requests fail, an in-flight pass is
// cancelled), and later uploads and unlearn requests fail with 503.
// Read-only endpoints keep serving the final state. It does not close
// the engine's store.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		if rs := c.cur; rs != nil && !rs.resolved {
			rs.resolved = true
			rs.err = ErrClosed
			if rs.timer != nil {
				rs.timer.Stop()
			}
			// Discard the window's uploads so the engine can open its
			// next round if it outlives this coordinator.
			rs.stream.Abort()
			c.cur = nil
			close(rs.done)
		}
	}
	// The queue's worker commits through c.mu, so it must be drained
	// outside the lock.
	c.mu.Unlock()
	if c.queue != nil {
		_ = c.queue.Close()
	}
	return nil
}

// statusWriter captures the response code for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the status before delegating.
func (s *statusWriter) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-endpoint latency timer and
// the request/error counters.
func (c *Coordinator) instrument(timerName string, h http.HandlerFunc) http.Handler {
	timer := c.cfg.Telemetry.Timer(timerName)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		span := timer.Start()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		span.End()
		c.met.requests.Inc()
		if sw.code >= 400 {
			c.met.requestErrors.Inc()
		}
	})
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	// Error is the human-readable message.
	Error string `json:"error"`
	// Code is the machine-readable cause (PROTOCOL.md lists them).
	Code string `json:"code"`
	// Round is the coordinator's current round at the time of the
	// error, so a desynchronised client can resynchronise.
	Round int `json:"round"`
}

// writeErr emits the JSON error envelope.
func (c *Coordinator) writeErr(w http.ResponseWriter, status int, code string, err error, round int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error(), Code: code, Round: round})
}

// mapError translates engine/store sentinels to the protocol's status
// codes and error code strings: quorum → 503, unknown client → 404,
// deadline → 408, no history / no record → 404, duplicate → 409.
func mapError(err error) (int, string) {
	switch {
	case errors.Is(err, fl.ErrQuorumNotReached):
		return http.StatusServiceUnavailable, "quorum_not_reached"
	case errors.Is(err, fl.ErrUnknownClient), errors.Is(err, history.ErrUnknownClient):
		return http.StatusNotFound, "unknown_client"
	case errors.Is(err, fl.ErrClientTimeout):
		return http.StatusRequestTimeout, "deadline_exceeded"
	case errors.Is(err, history.ErrNoHistory), errors.Is(err, history.ErrNoRecord):
		return http.StatusNotFound, "no_history"
	case errors.Is(err, ErrClosed), errors.Is(err, unlearn.ErrQueueClosed):
		return http.StatusServiceUnavailable, "closed"
	case errors.Is(err, unlearn.ErrQueueFull):
		return http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, unlearn.ErrUnknownRequest):
		return http.StatusNotFound, "unknown_request"
	case errors.Is(err, ErrBadFrame):
		return http.StatusBadRequest, "bad_frame"
	case errors.Is(err, fl.ErrDuplicateUpload):
		return http.StatusConflict, "duplicate_upload"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// trainingDone reports whether the horizon is reached (mu held).
func (c *Coordinator) trainingDone() bool {
	return c.cfg.MaxRounds > 0 && c.cfg.Engine.Round() >= c.cfg.MaxRounds
}

// scheduledSet collects the registered clients expected at round t.
func (c *Coordinator) scheduledSet(t int) map[history.ClientID]bool {
	set := make(map[history.ClientID]bool)
	for id := range c.registered {
		if c.cfg.Schedule.Participates(id, t) {
			set[id] = true
		}
	}
	return set
}

// ensureRound returns the open collection window, opening one if
// needed. Rounds whose schedule is empty are committed immediately
// (an in-process simulation advances through them the same way), up
// to the fast-forward cap. Returns nil when training is done or the
// coordinator is closed. mu must be held.
func (c *Coordinator) ensureRound() (*roundState, error) {
	if c.closed {
		return nil, ErrClosed
	}
	if c.cur != nil {
		return c.cur, nil
	}
	fastForwarded := 0
	for !c.trainingDone() {
		t := c.cfg.Engine.Round()
		scheduled := c.scheduledSet(t)
		if len(scheduled) > 0 || fastForwarded >= emptyFastForward {
			stream, err := c.cfg.Engine.NewRoundStream()
			if err != nil {
				return nil, err
			}
			rs := &roundState{
				t:         t,
				openedAt:  time.Now(),
				scheduled: scheduled,
				stream:    stream,
				done:      make(chan struct{}),
			}
			if c.window > 0 {
				rs.timer = time.AfterFunc(c.window, func() { c.expire(rs) })
			}
			c.cur = rs
			return rs, nil
		}
		// Empty schedule: commit an empty round, exactly like an
		// in-process round in which no vehicle is in coverage.
		if err := c.cfg.Engine.SubmitRound(nil, nil, 0); err != nil {
			return nil, err
		}
		c.met.rounds.Inc()
		fastForwarded++
	}
	return nil, nil
}

// resolve commits or fails the window. mu must be held; rs must be the
// current unresolved round.
func (c *Coordinator) resolve(rs *roundState, expired bool) {
	rs.resolved = true
	if rs.timer != nil {
		rs.timer.Stop()
	}
	if expired {
		c.met.roundsExpired.Inc()
	}
	rs.err = c.cfg.Engine.SubmitRoundStream(rs.stream, len(rs.scheduled))
	if rs.err != nil {
		c.met.roundsFailed.Inc()
		if c.cfg.SkipOnQuorumFailure && errors.Is(rs.err, fl.ErrQuorumNotReached) {
			if skipErr := c.cfg.Engine.SkipRound(); skipErr == nil {
				rs.skipped = true
			}
		}
	} else {
		c.met.rounds.Inc()
	}
	c.met.openWindow.Observe(time.Now().Sub(rs.openedAt))
	c.cur = nil
	close(rs.done)
}

// expire is the window timer callback: resolve by quorum.
func (c *Coordinator) expire(rs *roundState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rs.resolved || c.cur != rs {
		return
	}
	c.resolve(rs, true)
}

// roundReply is POST /v1/round's JSON success/quorum-failure body.
type roundReply struct {
	// Round is the round the upload was counted toward.
	Round int `json:"round"`
	// Committed reports whether the round's update was applied.
	Committed bool `json:"committed"`
	// Skipped reports that an under-quorum round was skipped
	// (SkipOnQuorumFailure) and the clock advanced without an update.
	Skipped bool `json:"skipped,omitempty"`
	// Responders and Scheduled describe the window's turnout.
	Responders int `json:"responders"`
	Scheduled  int `json:"scheduled"`
	// Absent is Scheduled − Responders at resolution.
	Absent int `json:"absent"`
	// NextRound is the coordinator's round clock after resolution —
	// the round the client should fetch the model for next.
	NextRound int `json:"next_round"`
	// Done reports that this commit reached MaxRounds: training is over
	// and no later upload is accepted.
	Done bool `json:"done,omitempty"`
}

// handleRound accepts one gradient upload and blocks until the round
// resolves (all scheduled uploads arrived, or the wall-clock window
// expired and quorum was adjudicated).
func (c *Coordinator) handleRound(w http.ResponseWriter, r *http.Request) {
	up, err := readUpload(r.Body, c.dim, &c.frames)
	if err != nil {
		status, code := mapError(err)
		c.writeErr(w, status, code, err, c.currentRound())
		return
	}
	// A dense upload's frame goes back to the free list on every exit
	// but one. Once the round has taken it (Add succeeded) it is the
	// round's until the round resolves — commit, failure or abort all
	// reset the engine's stream before done closes — and an uploader
	// gone before then leaves it to the GC. A sign upload has no frame.
	frame := up.Grad
	defer func() { c.frames.put(frame) }()

	c.mu.Lock()
	rs, err := c.ensureRound()
	if err != nil {
		c.mu.Unlock()
		status, code := mapError(err)
		c.writeErr(w, status, code, err, c.currentRound())
		return
	}
	if rs == nil {
		cur := c.cfg.Engine.Round()
		c.mu.Unlock()
		c.writeErr(w, http.StatusGone, "training_complete",
			fmt.Errorf("server: training complete after %d rounds", cur), cur)
		return
	}
	switch {
	case up.Round < rs.t:
		// The client missed its round's window: its deadline expired.
		c.met.lateUploads.Inc()
		cur := rs.t
		c.mu.Unlock()
		c.writeErr(w, http.StatusRequestTimeout, "deadline_exceeded",
			fmt.Errorf("upload for round %d after its window closed: %w", up.Round, fl.ErrClientTimeout), cur)
		return
	case up.Round > rs.t:
		cur := rs.t
		c.mu.Unlock()
		c.writeErr(w, http.StatusConflict, "round_mismatch",
			fmt.Errorf("upload for future round %d, server at %d", up.Round, cur), cur)
		return
	}
	if !c.registered[up.Client] {
		cur := rs.t
		c.mu.Unlock()
		c.writeErr(w, http.StatusNotFound, "unknown_client",
			fmt.Errorf("client %d: %w", up.Client, fl.ErrUnknownClient), cur)
		return
	}
	if !rs.scheduled[up.Client] {
		cur := rs.t
		c.mu.Unlock()
		c.writeErr(w, http.StatusConflict, "not_scheduled",
			fmt.Errorf("client %d is not scheduled for round %d", up.Client, cur), cur)
		return
	}
	// The upload enters the engine's round right now, in the form it
	// travelled in — a dense gradient is compressed for the history, a
	// sign payload is the history's direction already — then folded or
	// buffered by the round's aggregator, and the round's responder
	// bitmap detects duplicates.
	if up.Dir != nil {
		err = rs.stream.AddDirection(up.Client, up.Dir, up.Scale, up.Weight)
	} else {
		err = rs.stream.Add(up.Client, up.Grad, up.Weight)
	}
	if err != nil {
		cur := rs.t
		c.mu.Unlock()
		status, code := mapError(err)
		c.writeErr(w, status, code, err, cur)
		return
	}
	rs.responders++
	c.met.uploadBytes.Add(int64(up.PayloadBytes))
	if up.Encoding == EncodingSign {
		c.met.signUploads.Inc()
	} else {
		c.met.denseUploads.Inc()
	}
	if rs.responders == len(rs.scheduled) {
		c.resolve(rs, false)
	}
	c.mu.Unlock()

	waitStart := time.Now()
	select {
	case <-rs.done:
	case <-r.Context().Done():
		// The uploader went away; its gradient stays in the window.
		frame = nil
		return
	}
	c.met.roundWait.Observe(time.Now().Sub(waitStart))

	if rs.err != nil {
		status, code := mapError(rs.err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(struct {
			errorBody
			Skipped bool `json:"skipped,omitempty"`
		}{
			errorBody: errorBody{Error: rs.err.Error(), Code: code, Round: c.currentRound()},
			Skipped:   rs.skipped,
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(roundReply{
		Round:      rs.t,
		Committed:  true,
		Responders: rs.responders,
		Scheduled:  len(rs.scheduled),
		Absent:     len(rs.scheduled) - rs.responders,
		NextRound:  rs.t + 1,
		Done:       c.cfg.MaxRounds > 0 && rs.t+1 >= c.cfg.MaxRounds,
	})
}

// currentRound reads the engine clock under the lock.
func (c *Coordinator) currentRound() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.Engine.Round()
}

// unlearnRequest is POST /v1/unlearn's JSON body. The coordinator
// runs one algorithm, the paper's, and always installs its result;
// decoding refuses unknown fields, so a body that names an algorithm or
// asks for a dry run is answered 400 bad_request before any work.
type unlearnRequest struct {
	// Clients are the vehicles to erase.
	Clients []history.ClientID `json:"clients"`
	// Async enqueues the request on the unlearning queue instead of
	// running it inline: the reply is 202 with a request ID, rounds
	// keep being served while recovery chases the live history, and
	// requests queued together coalesce into one shared pass.
	Async bool `json:"async,omitempty"`
}

// asyncUnlearnReply is POST /v1/unlearn's 202 body in async mode.
type asyncUnlearnReply struct {
	// RequestID identifies the queued request; an async submission
	// fully covered by an already-queued request returns that
	// request's ID (dedup).
	RequestID string `json:"request_id"`
	// Status is the request's queue state at submission ("pending").
	Status string `json:"status"`
	// StatusPath is the endpoint to poll for completion.
	StatusPath string `json:"status_path"`
}

// unlearnReply is POST /v1/unlearn's JSON response.
type unlearnReply struct {
	// Forgotten echoes the erased client IDs (sorted).
	Forgotten []history.ClientID `json:"forgotten"`
	// BacktrackRound is F, the round the model was rolled back to.
	BacktrackRound int `json:"backtrack_round"`
	// RecoveredRounds is T − F, the number of re-estimated rounds.
	RecoveredRounds int `json:"recovered_rounds"`
	// Applied reports that the recovered model is now serving (always
	// true).
	Applied bool `json:"applied"`
}

// handleUnlearn erases the requested clients with the paper's scheme:
// backtrack to their earliest join round, recover server-side from the
// stored directions, and install the recovered parameters as the
// serving model. Inline (synchronous) requests lock the engine for the
// duration — rounds queue behind the operation. Async requests return
// 202 immediately and run on the unlearning queue, whose recovery pass
// chases the live history while rounds keep being served; only the
// commit's final catch-up takes the engine lock.
func (c *Coordinator) handleUnlearn(w http.ResponseWriter, r *http.Request) {
	var req unlearnRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		c.writeErr(w, http.StatusBadRequest, "bad_request",
			fmt.Errorf("decode unlearn request: %w", err), c.currentRound())
		return
	}
	if len(req.Clients) == 0 {
		c.writeErr(w, http.StatusBadRequest, "bad_request",
			errors.New("unlearn request names no clients"), c.currentRound())
		return
	}
	// The queue exists exactly when the engine has a history store.
	if c.queue == nil {
		c.writeErr(w, http.StatusNotFound, "no_history",
			fmt.Errorf("coordinator has no history store: %w", history.ErrNoHistory), c.currentRound())
		return
	}
	if req.Async {
		id, err := c.queue.Submit(req.Clients...)
		if err != nil {
			status, code := mapError(err)
			c.writeErr(w, status, code, err, c.currentRound())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(asyncUnlearnReply{
			RequestID:  id,
			Status:     string(unlearn.StatePending),
			StatusPath: "/v1/unlearn/" + id,
		})
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		c.writeErr(w, http.StatusServiceUnavailable, "closed", ErrClosed, c.cfg.Engine.Round())
		return
	}
	u, err := unlearn.New(c.cfg.Engine.Config().Store, c.cfg.Unlearn)
	if err != nil {
		c.writeErr(w, http.StatusInternalServerError, "internal", err, c.cfg.Engine.Round())
		return
	}
	res, err := u.UnlearnContext(r.Context(), req.Clients...)
	if err != nil {
		status, code := mapError(err)
		c.writeErr(w, status, code, err, c.cfg.Engine.Round())
		return
	}
	if err := c.cfg.Engine.SetParams(res.Params); err != nil {
		c.writeErr(w, http.StatusInternalServerError, "internal", err, c.cfg.Engine.Round())
		return
	}
	c.unlearns++
	c.met.unlearns.Inc()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(unlearnReply{
		Forgotten:       res.Forgotten,
		BacktrackRound:  res.BacktrackRound,
		RecoveredRounds: res.RecoveredRounds,
		Applied:         true,
	})
}

// unlearnStatusReply is GET /v1/unlearn/{id}'s JSON body.
type unlearnStatusReply struct {
	// RequestID echoes the queued request's ID.
	RequestID string `json:"request_id"`
	// Status is the request's queue state: pending, running, done or
	// failed.
	Status string `json:"status"`
	// Clients echoes the request's client set (sorted, deduplicated).
	Clients []history.ClientID `json:"clients"`
	// Forgotten lists every client the serving pass erased (the whole
	// coalesced batch), set when the request is done. A done request
	// with no forgotten list was trivially satisfied — its clients had
	// already been erased by an earlier pass.
	Forgotten []history.ClientID `json:"forgotten,omitempty"`
	// BacktrackRound and RecoveredRounds describe the serving pass,
	// set when the request is done and a pass actually ran.
	// BacktrackRound is a pointer because 0 (backtrack to the first
	// round) is a meaningful value that omitempty would swallow.
	BacktrackRound  *int `json:"backtrack_round,omitempty"`
	RecoveredRounds int  `json:"recovered_rounds,omitempty"`
	// Applied reports that the recovered model and rewritten history
	// are installed (always true for a completed async request).
	Applied bool `json:"applied,omitempty"`
	// Error is the failure cause when the request failed.
	Error string `json:"error,omitempty"`
}

// handleUnlearnStatus reports a queued async unlearning request's
// state; poll it until status is done or failed.
func (c *Coordinator) handleUnlearnStatus(w http.ResponseWriter, r *http.Request) {
	if c.queue == nil {
		c.writeErr(w, http.StatusNotFound, "no_history",
			fmt.Errorf("async unlearning needs a history store: %w", history.ErrNoHistory), c.currentRound())
		return
	}
	info, err := c.queue.Status(r.PathValue("id"))
	if err != nil {
		status, code := mapError(err)
		c.writeErr(w, status, code, err, c.currentRound())
		return
	}
	reply := unlearnStatusReply{
		RequestID: info.ID,
		Status:    string(info.State),
		Clients:   info.Clients,
	}
	if info.State == unlearn.StateDone {
		reply.Applied = true
		if info.Result != nil {
			reply.Forgotten = info.Result.Forgotten
			bt := info.Result.BacktrackRound
			reply.BacktrackRound = &bt
			reply.RecoveredRounds = info.Result.RecoveredRounds
		}
	}
	if info.Err != nil {
		reply.Error = info.Err.Error()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(reply)
}

// handleModel serves the global parameters: the current round's
// serving model, or a recorded historical snapshot.
func (c *Coordinator) handleModel(w http.ResponseWriter, r *http.Request) {
	t, err := strconv.Atoi(r.PathValue("round"))
	if err != nil || t < 0 {
		c.writeErr(w, http.StatusBadRequest, "bad_request",
			fmt.Errorf("bad round %q", r.PathValue("round")), c.currentRound())
		return
	}

	// The model is copied into a recycled upload frame under the lock
	// and written from it after; the frame goes back once written.
	params := c.frames.get(c.dim)
	if params == nil {
		params = make([]float64, c.dim)
	}
	defer c.frames.put(params)

	c.mu.Lock()
	if _, err := c.ensureRound(); err != nil && !errors.Is(err, ErrClosed) {
		c.mu.Unlock()
		status, code := mapError(err)
		c.writeErr(w, status, code, err, c.currentRound())
		return
	}
	cur := c.cfg.Engine.Round()
	switch {
	case t == cur:
		err = c.cfg.Engine.ParamsInto(params)
	case t < cur:
		if store := c.cfg.Engine.Config().Store; store != nil {
			err = store.ModelInto(t, params)
		} else {
			err = fmt.Errorf("no stored model for round %d: %w", t, history.ErrNoHistory)
		}
	default:
		err = fmt.Errorf("round %d not reached (current %d)", t, cur)
	}
	c.mu.Unlock()
	if err != nil {
		if t > cur {
			c.writeErr(w, http.StatusNotFound, "round_not_available", err, cur)
			return
		}
		status, code := mapError(err)
		c.writeErr(w, status, code, err, cur)
		return
	}
	w.Header().Set("Content-Type", "application/x-fuiov-model")
	w.Header().Set("X-Fuiov-Round", strconv.Itoa(t))
	if err := WriteModel(w, t, params); err == nil {
		c.met.modelBytes.Add(int64(modelHeaderLen + 8*len(params)))
	}
}

// statusReply is GET /v1/status's JSON body.
type statusReply struct {
	// Round is the round currently collecting uploads.
	Round int `json:"round"`
	// MaxRounds is the training horizon (0 = unbounded).
	MaxRounds int `json:"max_rounds"`
	// Done reports that the horizon is reached.
	Done bool `json:"done"`
	// Clients is the registry size; Scheduled and Responders describe
	// the open window's turnout so far.
	Clients    int `json:"clients"`
	Scheduled  int `json:"scheduled"`
	Responders int `json:"responders"`
	// WindowMillis is the wall-clock collection window (0 = barrier).
	WindowMillis int64 `json:"window_ms"`
	// RemainingMillis is the open window's time budget left.
	RemainingMillis int64 `json:"window_remaining_ms"`
	// Quorum is the policy's minimum responding fraction.
	Quorum float64 `json:"quorum"`
	// Unlearns counts unlearning operations served.
	Unlearns int `json:"unlearns"`
	// Dim is the model's parameter count (upload frames must match).
	Dim int `json:"dim"`
	// Streaming reports that uploads fold into shard accumulators on
	// arrival instead of being buffered until the commit; Shards is the
	// shard count P and Folded the open window's fold count (equal to
	// Responders — observable evidence that nothing is buffered).
	Streaming bool `json:"streaming,omitempty"`
	Shards    int  `json:"shards,omitempty"`
	Folded    int  `json:"folded,omitempty"`
	// Storage summarises the history store's footprint, when one is
	// attached.
	Storage *history.StorageReport `json:"storage,omitempty"`
	// UnlearnQueue summarises the async unlearning service (present
	// when the engine records history): queue depth, requests folded
	// into the in-flight pass, and cumulative pass/coalescing counts.
	UnlearnQueue *queueStatus `json:"unlearn_queue,omitempty"`
}

// queueStatus is the unlearning-queue block of GET /v1/status.
type queueStatus struct {
	// Pending is the number of requests waiting for the next pass.
	Pending int `json:"pending"`
	// InFlight is the number of requests folded into the running pass.
	InFlight int `json:"in_flight"`
	// Passes counts coalesced recovery passes executed.
	Passes int64 `json:"passes"`
	// Coalesced counts requests that shared a pass beyond the first.
	Coalesced int64 `json:"coalesced"`
	// Deduped counts submissions answered with an existing request ID.
	Deduped int64 `json:"deduped"`
}

// handleStatus reports the coordinator's round clock and window state.
// Polling it also drives progress: opening the status view fast-
// forwards through empty-schedule rounds just as an upload would.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	rs, err := c.ensureRound()
	if err != nil && !errors.Is(err, ErrClosed) {
		c.mu.Unlock()
		status, code := mapError(err)
		c.writeErr(w, status, code, err, c.currentRound())
		return
	}
	reply := statusReply{
		Round:     c.cfg.Engine.Round(),
		MaxRounds: c.cfg.MaxRounds,
		Done:      c.trainingDone(),
		Clients:   len(c.registered),
		Unlearns:  c.unlearns,
		Dim:       c.dim,
	}
	if p := c.cfg.Engine.Config().FaultPolicy; p != nil {
		reply.Quorum = p.Quorum
	}
	reply.WindowMillis = c.window.Milliseconds()
	if rs != nil {
		reply.Scheduled = len(rs.scheduled)
		reply.Responders = rs.responders
		if c.window > 0 {
			remaining := c.window - time.Now().Sub(rs.openedAt)
			if remaining < 0 {
				remaining = 0
			}
			reply.RemainingMillis = remaining.Milliseconds()
		}
	}
	if c.streaming {
		reply.Streaming = true
		reply.Shards = c.cfg.Engine.Config().StreamShards
		reply.Folded = reply.Responders
	}
	if store := c.cfg.Engine.Config().Store; store != nil {
		rep := store.Storage()
		reply.Storage = &rep
	}
	c.mu.Unlock()
	if c.queue != nil {
		st := c.queue.Stats()
		reply.UnlearnQueue = &queueStatus{
			Pending:   st.Pending,
			InFlight:  st.InFlight,
			Passes:    st.Passes,
			Coalesced: st.Coalesced,
			Deduped:   st.Deduped,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(reply)
}

// handleMetrics dumps the telemetry snapshot as JSON, mirroring the
// fuiov commands' -metrics flag on a live endpoint.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if c.cfg.Telemetry == nil {
		c.writeErr(w, http.StatusNotFound, "telemetry_disabled",
			errors.New("coordinator started without telemetry"), c.currentRound())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = c.cfg.Telemetry.Snapshot().WriteJSON(w)
}

// WaitDone blocks until the coordinator's horizon is reached or the
// context is cancelled — the serve loop of `fuiov rsu -agents=false`.
// Polling interval is coarse; it is a convenience for drivers, not a
// synchronisation primitive.
func (c *Coordinator) WaitDone(ctx context.Context) error {
	ticker := time.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()
	for {
		c.mu.Lock()
		done := c.trainingDone() || c.closed
		c.mu.Unlock()
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}
