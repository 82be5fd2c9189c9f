package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fuiov/internal/agent"
	"fuiov/internal/history"
	"fuiov/internal/metrics"
	"fuiov/internal/nn"
	"fuiov/internal/server"
	"fuiov/internal/telemetry"
)

// episodeResult is everything one episode measured.
type episodeResult struct {
	setup time.Duration
	// window is the measured span of uploading: the whole train phase
	// on the sync workloads, POST /v1/unlearn → done on unlearn_overlap.
	window time.Duration
	// latencies are the committed uploads' first-byte → reply-read
	// times inside the window.
	latencies      []time.Duration
	unlearnServing time.Duration
	wireBytes      int64
	historyBytes   float64 // per recorded round
	liveHeap       uint64
	allocBytes     uint64
	numGC          uint32
	gcPause        time.Duration
	busy           time.Duration
	// gemm is the nn GEMM kernel clock's advance over the train phase
	// (zero unless telemetry switched the kernel clocks on).
	gemm      time.Duration
	rounds    int // rounds committed inside the window
	requests  map[string]int
	attempted int
	failed    int
	errs      []string
	// queueWait is POST → first status poll that reads "running"
	// (unlearn_overlap only).
	queueWait time.Duration
	// reply is the unlearn result as the server reported it.
	reply unlearnReply
}

// unlearnReply is the union of POST /v1/unlearn's sync reply and
// GET /v1/unlearn/{id}'s status body.
type unlearnReply struct {
	RequestID       string             `json:"request_id"`
	Status          string             `json:"status"`
	StatusPath      string             `json:"status_path"`
	Forgotten       []history.ClientID `json:"forgotten"`
	BacktrackRound  *int               `json:"backtrack_round"`
	RecoveredRounds int                `json:"recovered_rounds"`
	Applied         bool               `json:"applied"`
	Error           string             `json:"error"`
}

// rig is one episode's live system: engine, coordinator and listener.
type rig struct {
	*engine
	coord  *server.Coordinator
	srv    *http.Server
	served chan error
	base   string
	rec    *recorder
	hc     *http.Client
	agents []*agent.Agent
}

// setUp builds the system under test and starts serving it on a fresh
// loopback port. Everything here is set-up time.
func setUp(s spec, seed uint64, g *generator, reg *telemetry.Registry, tr *tracer) (*rig, error) {
	e, err := buildEngine(s, seed, s.streaming, reg)
	if err != nil {
		return nil, err
	}
	r := &rig{engine: e}
	maxRounds := s.rounds
	if s.kind == overlap {
		if err := e.submitSynthetic(0, s.rounds); err != nil {
			return nil, err
		}
		maxRounds = 0
	}
	r.coord, err = server.New(server.Config{
		Engine:    e.sim,
		MaxRounds: maxRounds,
		Unlearn:   e.unlearnCfg,
		Telemetry: reg,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.srv = &http.Server{Handler: r.coord}
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(ln) }()
	r.base = "http://" + ln.Addr().String()
	r.rec = newRecorder(g, tr)
	r.hc = r.rec.client()
	if s.kind == fleetCNN {
		for _, c := range e.clients {
			a, err := agent.New(agent.Config{
				BaseURL:    r.base,
				Client:     c,
				Template:   e.template.Clone(),
				Seed:       seed,
				Schedule:   e.schedule,
				HTTPClient: r.hc,
				Telemetry:  reg,
			})
			if err != nil {
				return nil, err
			}
			r.agents = append(r.agents, a)
		}
	}
	return r, nil
}

// tearDown stops the listener, the coordinator and the store, and
// waits for the serve loop, so the next episode starts from nothing.
func (r *rig) tearDown(g *generator) {
	r.srv.Close()
	<-r.served
	r.coord.Close()
	r.store.Close()
	g.transport.CloseIdleConnections()
	runtime.GC()
}

// fleetRun runs every vehicle of the episode to completion and returns
// the first failure. A failed vehicle cancels the rest: a barrier round
// that lost a vehicle would otherwise never resolve.
func fleetRun(ctx context.Context, n int, run func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if errs[i] = run(ctx, i); errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return errors.Join(errs...)
}

// getModel fetches GET /v1/model/{round}.
func (r *rig) getModel(ctx context.Context, round int) ([]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/v1/model/"+strconv.Itoa(round), nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET model %d: %s", round, resp.Status)
	}
	_, params, err := server.ReadModel(resp.Body, r.dim)
	return params, err
}

// doJSON sends one JSON request and decodes the JSON reply.
func (r *rig) doJSON(ctx context.Context, method, path string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// memSample reads the allocator's counters.
func memSample() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// closeWindow ends the measured window [start, end], whose allocator
// counters were m0 and m1: it forces the GC that precedes the live-heap
// sample and gathers the window's committed uploads.
func (r *rig) closeWindow(res *episodeResult, start, end time.Time, m0, m1 runtime.MemStats) {
	runtime.GC()
	res.liveHeap = memSample().HeapAlloc
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.numGC = m1.NumGC - m0.NumGC
	res.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	r.rec.mu.Lock()
	defer r.rec.mu.Unlock()
	for _, u := range r.rec.uploads {
		if u.committed && !u.end.Before(start) && !u.end.After(end) {
			res.latencies = append(res.latencies, u.end.Sub(u.start))
		}
	}
}

// runEpisode sets one episode up, trains, unlearns, checks and tears
// down. reg and tr are nil on the untraced run.
func runEpisode(ctx context.Context, s spec, seed uint64, g *generator, tw *twin, reg *telemetry.Registry, tr *tracer) (*episodeResult, error) {
	// The kernel clocks are process-wide and fl.NewSimulation switches
	// them on with telemetry; an untraced episode must not inherit them.
	nn.EnableKernelTiming(reg != nil)
	epSpan := tr.open("episode", 0, -1)
	defer tr.close(epSpan)

	t0 := time.Now()
	r, err := setUp(s, seed, g, reg, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.tearDown(g)
	res := &episodeResult{setup: time.Since(t0)}
	tr.add("setup", epSpan, -1, t0, time.Now())

	var busy atomic.Int64
	var pre, post []float64
	trainSpan := tr.open("train", epSpan, -1)
	r.rec.parent.Store(trainSpan)
	wire0 := g.wireBytes()
	if s.kind == overlap {
		pre, post, err = r.overlapPhase(ctx, res, &busy, tr, epSpan)
	} else {
		err = r.trainPhase(ctx, res, &busy)
	}
	tr.close(trainSpan)
	if err != nil {
		return nil, err
	}
	res.busy = time.Duration(busy.Load())

	if s.kind != overlap {
		unSpan := tr.open("unlearn", epSpan, -1)
		r.rec.parent.Store(unSpan)
		pre, post, err = r.syncUnlearn(ctx, res)
		tr.close(unSpan)
		if err != nil {
			return nil, err
		}
	}
	res.wireBytes = g.wireBytes() - wire0
	// A sync unlearn leaves the store as training wrote it; an async
	// pass has swapped in its rewrite, which r.store now names.
	st := r.store.Storage()
	res.historyBytes = float64(st.DirectionBytes+st.ModelBytes) / float64(r.store.Rounds())

	r.verify(s, res, tw, pre, post)
	r.rec.mu.Lock()
	res.requests = r.rec.requests
	res.attempted, res.failed, res.errs = r.rec.attempted, r.rec.failed, r.rec.errs
	r.rec.mu.Unlock()
	return res, nil
}

// trainPhase serves R rounds over HTTP: real agents on fleet_cnn,
// pre-encoded frames on the ingest workloads. It ends with a forced GC
// and the live-heap sample.
func (r *rig) trainPhase(ctx context.Context, res *episodeResult, busy *atomic.Int64) error {
	s := r.spec
	m0 := memSample()
	_, gemm0, _ := nn.KernelTimes()
	start := time.Now()
	var err error
	if s.kind == fleetCNN {
		err = fleetRun(ctx, len(r.agents), func(ctx context.Context, i int) error {
			return r.agents[i].Run(ctx)
		})
	} else {
		// The victim joins at round F: it waits, as a vehicle out of
		// coverage would, until the rest of the fleet has committed
		// round F−1, then uploads with everyone else.
		joined := make(chan struct{})
		err = fleetRun(ctx, len(r.fleet), func(ctx context.Context, i int) error {
			v := r.fleet[i]
			if v.id != r.victim {
				if err := drive(ctx, r.hc, r.base, v, 0, s.joinRound(), 0, nil, busy); err != nil {
					return err
				}
				if i == r.herald() {
					close(joined)
				}
			} else {
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-joined:
				}
			}
			return drive(ctx, r.hc, r.base, v, s.joinRound(), s.rounds, 0, nil, busy)
		})
	}
	end := time.Now()
	res.window = end.Sub(start)
	if err != nil {
		return fmt.Errorf("train phase: %w", err)
	}
	_, gemm1, _ := nn.KernelTimes()
	res.gemm = gemm1 - gemm0
	res.rounds = s.rounds
	r.closeWindow(res, start, end, m0, memSample())
	return nil
}

// herald is the index of the vehicle that announces round F−1's commit
// to the waiting victim: the first one that is not the victim.
func (r *rig) herald() int {
	if r.fleet[0].id == r.victim {
		return 1
	}
	return 0
}

// syncUnlearn erases the victim with a blocking POST /v1/unlearn and
// returns the serving model before and after.
func (r *rig) syncUnlearn(ctx context.Context, res *episodeResult) (pre, post []float64, err error) {
	if pre, err = r.getModel(ctx, r.spec.rounds); err != nil {
		return nil, nil, err
	}
	request := map[string]any{"clients": []history.ClientID{r.victim}}
	// A sync unlearn reads the history and rewrites nothing, so the
	// same request does the same work again: fleet_cnn's ~15 ms recovery
	// is repeated a dozen times and the median reported, the deep
	// recoveries of the ingest workloads run once.
	var took []float64
	for spent := time.Duration(0); len(took) == 0 || spent < r.spec.unlearnFloor; {
		var reply unlearnReply
		start := time.Now()
		status, err := r.doJSON(ctx, http.MethodPost, "/v1/unlearn", request, &reply)
		d := time.Since(start)
		if err != nil {
			return nil, nil, fmt.Errorf("POST /v1/unlearn: %w", err)
		}
		if status != http.StatusOK {
			return nil, nil, fmt.Errorf("POST /v1/unlearn: status %d: %s", status, reply.Error)
		}
		if len(took) == 0 {
			res.reply = reply
		}
		took = append(took, d.Seconds())
		spent += d
	}
	res.unlearnServing = time.Duration(median(took) * float64(time.Second))
	post, err = r.getModel(ctx, r.spec.rounds)
	return pre, post, err
}

// overlapPhase runs the live fleet beside an async unlearn. The
// measured window is POST /v1/unlearn → status "done"; the fleet then
// stops on a common round. It returns round R's stored model before
// and after the pass rewrote the history.
func (r *rig) overlapPhase(ctx context.Context, res *episodeResult, busy *atomic.Int64, tr *tracer, epSpan int64) (pre, post []float64, err error) {
	s := r.spec
	live := make([]*synthVehicle, 0, len(r.fleet))
	for _, v := range r.fleet {
		if v.id != r.victim {
			live = append(live, v)
		}
	}
	p := newPacer(s.rounds)
	fleetDone := make(chan error, 1)
	go func() {
		fleetDone <- fleetRun(ctx, len(live), func(ctx context.Context, i int) error {
			return drive(ctx, r.hc, r.base, live[i], s.rounds, -1, s.think, p, busy)
		})
	}()
	fail := func(err error) ([]float64, []float64, error) {
		_ = r.coord.Close() // unblocks uploads parked on an open round
		<-fleetDone
		return nil, nil, err
	}

	// Let the connections open and a few rounds commit before measuring.
	for r.rec.uploadCount() < s.warmRounds*len(live) {
		select {
		case err := <-fleetDone:
			return nil, nil, fmt.Errorf("live fleet stopped early: %w", err)
		case <-time.After(time.Millisecond):
		}
	}
	if pre, err = r.getModel(ctx, s.rounds); err != nil {
		return fail(err)
	}

	unSpan := tr.open("unlearn", epSpan, -1)
	m0 := memSample()
	start := time.Now()
	var accepted unlearnReply
	status, err := r.doJSON(ctx, http.MethodPost, "/v1/unlearn",
		map[string]any{"clients": []history.ClientID{r.victim}, "async": true}, &accepted)
	if err != nil || status != http.StatusAccepted {
		return fail(fmt.Errorf("POST /v1/unlearn async: status %d: %v", status, err))
	}
	for {
		var st unlearnReply
		if _, err := r.doJSON(ctx, http.MethodGet, accepted.StatusPath, nil, &st); err != nil {
			return fail(fmt.Errorf("GET %s: %w", accepted.StatusPath, err))
		}
		if st.Status == "running" && res.queueWait == 0 {
			res.queueWait = time.Since(start)
		}
		if st.Status == "done" || st.Status == "failed" {
			res.reply = st
			break
		}
		select {
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
	end := time.Now()
	m1 := memSample()
	tr.close(unSpan)
	res.unlearnServing = end.Sub(start)
	res.window = res.unlearnServing
	// The fleet ends on a common round.
	p.stop()
	if err := <-fleetDone; err != nil {
		return nil, nil, fmt.Errorf("live fleet: %w", err)
	}
	// The pass swapped a rewritten store into the engine; the one built
	// at set-up is superseded and must not count as live heap.
	r.store = r.sim.Config().Store
	r.closeWindow(res, start, end, m0, m1)
	res.rounds = len(res.latencies) / len(live)
	if post, err = r.getModel(ctx, s.rounds); err != nil {
		return nil, nil, err
	}
	return pre, post, nil
}

// verify runs the episode's correctness checks; each counts as one
// attempted operation and a miss as one failure.
func (r *rig) verify(s spec, res *episodeResult, tw *twin, pre, post []float64) {
	rec := r.rec
	rep := res.reply
	rec.check(slices.Equal(rep.Forgotten, []history.ClientID{r.victim}),
		"unlearn forgot %v, want [%d]", rep.Forgotten, r.victim)
	rec.check(rep.Error == "" && rep.Status != "failed", "unlearn failed: %s", rep.Error)
	rec.check(rep.Applied, "unlearn reply not applied")
	rec.check(rep.BacktrackRound != nil && *rep.BacktrackRound == s.joinRound(),
		"backtracked to %v, want %d", rep.BacktrackRound, s.joinRound())
	want := s.rounds - s.joinRound()
	if s.kind == overlap {
		rec.check(rep.RecoveredRounds >= want, "recovered %d rounds, want at least %d", rep.RecoveredRounds, want)
	} else {
		rec.check(rep.RecoveredRounds == want, "recovered %d rounds, want %d", rep.RecoveredRounds, want)
	}
	rec.check(!slices.Equal(pre, post), "model unchanged by unlearning")
	if s.kind == overlap {
		return
	}

	if s.streaming {
		// Shards fold in arrival order, so the streamed sum differs from
		// the barrier twin's by float reassociation only.
		rec.check(relDiff(pre, tw.final) <= 1e-9, "streamed model differs from barrier twin by %g", relDiff(pre, tw.final))
		rec.check(relDiff(post, tw.unlearned.Params) <= 1e-6, "streamed recovery differs from twin by %g", relDiff(post, tw.unlearned.Params))
	} else {
		rec.check(slices.Equal(pre, tw.final), "HTTP-trained model differs from in-process twin (rel %g)", relDiff(pre, tw.final))
		rec.check(slices.Equal(post, tw.unlearned.Params), "HTTP recovery differs from in-process Unlearner (rel %g)", relDiff(post, tw.unlearned.Params))
	}
	if s.accuracyFloor > 0 {
		acc := metrics.AccuracyAt(r.template.Clone(), pre, r.test)
		rec.check(acc >= s.accuracyFloor, "test accuracy %.3f below floor %.2f", acc, s.accuracyFloor)
	}
}

// relDiff is max|a−b| relative to max|b|.
func relDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var diff, scale float64
	for i := range a {
		diff = math.Max(diff, math.Abs(a[i]-b[i]))
		scale = math.Max(scale, math.Abs(b[i]))
	}
	if scale == 0 {
		return diff
	}
	return diff / scale
}
