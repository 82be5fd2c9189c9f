// Package agent implements the vehicle side of the networked RSU
// protocol: a client agent owns a private data shard (an fl.Client),
// follows the coordinator's round clock over HTTP, computes gradients
// locally at the served global model, and uploads them dense or
// sign-compressed (PROTOCOL.md). Connectivity is decided by the same
// mobility schedule the simulation uses — an agent whose vehicle is
// out of RSU coverage at round t simply does not upload, and the
// server's wall-clock window resolves the round by quorum, the
// degradation path of the fault-tolerant round engine.
//
// Gradient computation is the exact deterministic function the
// in-process engine calls (fl.Client.ComputeGradient over the wire-
// exact float64 parameters), which is why a fleet of agents over
// loopback HTTP reproduces an in-process simulation bit for bit.
package agent

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"fuiov/internal/fl"
	"fuiov/internal/nn"
	"fuiov/internal/server"
	"fuiov/internal/sign"
	"fuiov/internal/telemetry"
)

// Config parameterises an Agent.
type Config struct {
	// BaseURL locates the coordinator, e.g. "http://127.0.0.1:8383".
	BaseURL string
	// Client is the vehicle: its ID, data shard and local-step
	// configuration. Required.
	Client *fl.Client
	// Template is the model architecture (cloned locally; the agent
	// never shares state with the server or other agents). Required.
	Template *nn.Network
	// Seed must match the coordinator's engine seed: the per-round
	// mini-batch draw is a pure function of (seed, client, round), so
	// agreeing on the seed is what makes networked rounds reproduce
	// in-process ones bit-identically.
	Seed uint64
	// Schedule decides when the vehicle is connected (an iov.Trace
	// fits directly). Nil participates in every round.
	Schedule fl.Schedule
	// Encoding selects the upload serialisation (dense by default;
	// sign for the 32×-smaller lossy RSA-style upload).
	Encoding server.Encoding
	// Delta is the sign-compression threshold (EncodingSign only).
	Delta float64
	// Scale is the magnitude shipped alongside a sign upload; the
	// server reconstructs sign(g)·Scale. 0 means 1.
	Scale float64
	// HTTPClient overrides the transport (tests, timeouts, TLS).
	// Defaults to a client with no global timeout — POST /v1/round
	// legitimately blocks for the server's collection window.
	HTTPClient *http.Client
	// Policy bounds retries of transient transport failures by the
	// policy's MaxRetries; each retry follows the failure at once. Nil
	// retries nothing.
	Policy *fl.FaultPolicy
	// PollInterval is the wait between /v1/status polls while sitting
	// out rounds (out of coverage, or a window the agent lost).
	// Defaults to 20ms.
	PollInterval time.Duration
	// UploadDelay inserts an artificial wait between computing a
	// gradient and uploading it — a straggler knob for tests and
	// demos exercising the server's deadline path.
	UploadDelay time.Duration
	// Telemetry, when non-nil, receives the agent.* counters/timers.
	Telemetry *telemetry.Registry
}

// agentMetrics caches telemetry handles (nil/no-op when disabled).
type agentMetrics struct {
	rounds    *telemetry.Counter
	skips     *telemetry.Counter
	retries   *telemetry.Counter
	polls     *telemetry.Counter
	uploadDur *telemetry.Timer
}

// Agent is one vehicle following a networked coordinator. Run is its
// only entry point and drives one round at a time, so the per-round
// buffers below are reused, never shared.
type Agent struct {
	cfg Config
	hc  *http.Client
	met agentMetrics

	// params receives each round's global model.
	params []float64
	// frame holds the binary frame in flight: the fetched model while
	// it is decoded, then the upload (kept intact across retries).
	frame bytes.Buffer
}

// New creates an agent. It validates the configuration but does not
// contact the server; Run does.
func New(cfg Config) (*Agent, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("agent: empty base URL")
	}
	if cfg.Client == nil {
		return nil, errors.New("agent: nil client")
	}
	if cfg.Template == nil {
		return nil, errors.New("agent: nil template")
	}
	if cfg.Encoding != server.EncodingDense && cfg.Encoding != server.EncodingSign {
		return nil, fmt.Errorf("agent: unknown encoding %d", cfg.Encoding)
	}
	if cfg.Encoding == server.EncodingSign {
		if err := sign.CheckThreshold(cfg.Delta); err != nil {
			return nil, fmt.Errorf("agent: %w", err)
		}
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 20 * time.Millisecond
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	reg := cfg.Telemetry
	return &Agent{
		cfg:    cfg,
		hc:     hc,
		params: make([]float64, cfg.Template.NumParams()),
		met: agentMetrics{
			rounds:    reg.Counter(telemetry.ServerAgentRounds),
			skips:     reg.Counter(telemetry.ServerAgentSkips),
			retries:   reg.Counter(telemetry.ServerAgentRetries),
			polls:     reg.Counter(telemetry.ServerAgentWaits),
			uploadDur: reg.Timer(telemetry.ServerAgentUploadDur),
		},
	}, nil
}

// participates reports coverage at round t.
func (a *Agent) participates(t int) bool {
	return a.cfg.Schedule == nil || a.cfg.Schedule.Participates(a.cfg.Client.ID, t)
}

// Run follows the coordinator's round clock until training is done (a
// round reply or /v1/status says so, or the server answers 410), or
// the context is cancelled. Each round the agent either
// computes-and-uploads (in coverage) or sits the round out polling
// /v1/status (out of coverage). A committed round's reply names the
// next round, so /v1/status is asked only at start, when that next
// round finds the vehicle out of coverage, and after any answer but
// 200.
func (a *Agent) Run(ctx context.Context) error {
	lastSkipped := -1
	t, known := 0, false
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !known {
			st, err := a.status(ctx)
			if err != nil {
				return fmt.Errorf("agent %d: status: %w", a.cfg.Client.ID, err)
			}
			if st.Done {
				return nil
			}
			t = st.Round
		}
		known = false
		if !a.participates(t) {
			if t != lastSkipped {
				a.met.skips.Inc()
				lastSkipped = t
			}
			a.met.polls.Inc()
			if err := sleepCtx(ctx, a.cfg.PollInterval); err != nil {
				return err
			}
			continue
		}
		reply, err := a.runRound(ctx, t)
		if err != nil {
			return fmt.Errorf("agent %d: round %d: %w", a.cfg.Client.ID, t, err)
		}
		if reply.Done {
			return nil
		}
		if reply.committed {
			t, known = reply.NextRound, true
		}
	}
}

// runRound executes one participation attempt: fetch the round's
// model, compute the local gradient, upload, and interpret the
// resolution. Its reply is the server's on a commit; Done is also set
// when the server answers 410. Losing the round (deadline, quorum
// failure, duplicate) is not an error — the loop resynchronises from
// /v1/status.
func (a *Agent) runRound(ctx context.Context, t int) (roundReply, error) {
	params, status, err := a.fetchModel(ctx, t)
	if status == http.StatusGone {
		return roundReply{Done: true}, nil
	}
	if status == http.StatusNotFound || status == http.StatusConflict {
		// The clock moved while we were deciding; resynchronise.
		return roundReply{}, sleepCtx(ctx, a.cfg.PollInterval)
	}
	if err != nil {
		return roundReply{}, err
	}
	g, err := a.cfg.Client.ComputeGradient(a.cfg.Template, params, a.cfg.Seed, t)
	if err != nil {
		return roundReply{}, err
	}
	if a.cfg.UploadDelay > 0 {
		if err := sleepCtx(ctx, a.cfg.UploadDelay); err != nil {
			return roundReply{}, err
		}
	}
	status, reply, err := a.upload(ctx, t, g)
	switch status {
	case http.StatusOK:
		a.met.rounds.Inc()
		return reply, nil
	case http.StatusGone:
		return roundReply{Done: true}, nil
	case http.StatusServiceUnavailable,
		http.StatusRequestTimeout,
		http.StatusConflict:
		// Quorum failure (the window will re-collect or was skipped),
		// a missed deadline, or a round mismatch: not fatal, fall back
		// to the status poll and follow the clock.
		return roundReply{}, sleepCtx(ctx, a.cfg.PollInterval)
	default:
		return roundReply{}, err
	}
}

// roundReply mirrors the fields of POST /v1/round's 200 body the agent
// follows; committed records that the body was one.
type roundReply struct {
	NextRound int  `json:"next_round"`
	Done      bool `json:"done"`
	committed bool
}

// statusReply mirrors the server's /v1/status body (the fields the
// agent uses).
type statusReply struct {
	Round int  `json:"round"`
	Done  bool `json:"done"`
	Dim   int  `json:"dim"`
}

// status polls GET /v1/status with transient-failure retry.
func (a *Agent) status(ctx context.Context) (*statusReply, error) {
	var st statusReply
	err := a.withRetry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, a.cfg.BaseURL+"/v1/status", nil)
		if err != nil {
			return err
		}
		resp, err := a.hc.Do(req)
		if err != nil {
			return err
		}
		defer drain(resp)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %s", resp.Status)
		}
		return json.NewDecoder(resp.Body).Decode(&st)
	})
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// fetchModel retrieves the round-t global parameters into the
// agent-owned vector it returns, valid until the next fetch. The
// returned status is the HTTP code (0 on transport failure after
// retries).
func (a *Agent) fetchModel(ctx context.Context, t int) ([]float64, int, error) {
	var code int
	err := a.withRetry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			a.cfg.BaseURL+"/v1/model/"+strconv.Itoa(t), nil)
		if err != nil {
			return err
		}
		resp, err := a.hc.Do(req)
		if err != nil {
			return err
		}
		defer drain(resp)
		code = resp.StatusCode
		if code != http.StatusOK {
			return nil // mapped by caller from code
		}
		// One byte past a well-formed frame: an oversized body is
		// rejected by DecodeModel instead of buffered.
		limit := int64(server.ModelFrameLen(len(a.params))) + 1
		a.frame.Reset()
		if _, err := a.frame.ReadFrom(io.LimitReader(resp.Body, limit)); err != nil {
			return err
		}
		_, err = server.DecodeModel(a.frame.Bytes(), a.params)
		return err
	})
	return a.params, code, err
}

// upload POSTs the gradient frame for round t and waits for the
// round's resolution. The returned status is the HTTP code, and on 200
// the reply is the decoded commit summary (left uncommitted if the body
// is not one, so the caller falls back to /v1/status).
func (a *Agent) upload(ctx context.Context, t int, g []float64) (int, roundReply, error) {
	a.frame.Reset()
	if err := server.WriteUpload(&a.frame, a.cfg.Client.ID, t, a.cfg.Client.Weight(),
		a.cfg.Encoding, g, a.cfg.Delta, a.cfg.Scale); err != nil {
		return 0, roundReply{}, err
	}
	var code int
	var reply roundReply
	err := a.withRetry(ctx, func() error {
		span := a.met.uploadDur.Start()
		defer span.End()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			a.cfg.BaseURL+"/v1/round", bytes.NewReader(a.frame.Bytes()))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/x-fuiov-upload")
		resp, err := a.hc.Do(req)
		if err != nil {
			return err
		}
		defer drain(resp)
		code = resp.StatusCode
		if code == http.StatusOK {
			reply.committed = json.NewDecoder(resp.Body).Decode(&reply) == nil
		}
		return nil
	})
	return code, reply, err
}

// withRetry runs op, retrying transport-level failures at once within
// the policy's retry budget; ctx is checked before every attempt. HTTP
// error statuses are not retried here — the protocol's status codes
// carry their own semantics, interpreted by the round loop.
func (a *Agent) withRetry(ctx context.Context, op func() error) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			a.met.retries.Inc()
		}
		if lastErr = op(); lastErr == nil {
			return nil
		}
		if a.cfg.Policy == nil || attempt >= a.cfg.Policy.MaxRetries {
			return lastErr
		}
	}
}

// sleepCtx waits for d, returning early with the context's error if it
// is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// drain discards and closes a response body so the transport's
// connection is reusable.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
