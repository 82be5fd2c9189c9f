package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"time"

	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/lbfgs"
	"fuiov/internal/rng"
	"fuiov/internal/server"
	"fuiov/internal/sign"
	"fuiov/internal/telemetry"
	"fuiov/internal/tensor"
	"fuiov/internal/unlearn"
)

// layerResult is the traced run's output: one value per per-layer
// metric, and the per-round reconciliation of layer time against the
// measured round.
type layerResult struct {
	values         map[string]metricValue
	reconciliation map[string]float64
}

// replayer times calls into a layer's public functions, one layer at a
// time and single-threaded, over the workload's own inputs.
type replayer struct {
	tr   *tracer
	root int64
	// budget bounds the time spent on one function.
	budget time.Duration
	sec    map[string]float64
}

// time calls fn until the budget is spent (at least five samples, at
// most two hundred) and records the median seconds per call under
// name. Each sample is batch back-to-back calls, so functions far
// shorter than a clock read still get a usable number.
func (rp *replayer) time(name string, batch int, fn func()) {
	var samples []float64
	start := time.Now()
	for len(samples) < 5 || (time.Since(start) < rp.budget && len(samples) < 200) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		t1 := time.Now()
		rp.tr.add("replay."+name, rp.root, -1, t0, t1)
		samples = append(samples, t1.Sub(t0).Seconds()/float64(batch))
	}
	rp.sec[name] = median(samples)
}

// must stops the run on an error from a replayed call: the replays use
// inputs that the episodes have already shown to be valid.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("replay: %v", err))
	}
}

// gradients returns one round of the workload's uploads as the server
// would hold them: decoded frames on the synthetic workloads, real
// client gradients on fleet_cnn.
func (tw *twin) gradients() (map[history.ClientID][]float64, map[history.ClientID]float64) {
	grads := make(map[history.ClientID][]float64)
	weights := make(map[history.ClientID]float64)
	if tw.fleet != nil {
		for _, v := range tw.fleet {
			g, err := v.decode(v.applied, tw.dim)
			must(err)
			grads[v.id], weights[v.id] = g, v.weight
		}
		return grads, weights
	}
	for _, c := range tw.clients {
		g, err := c.ComputeGradient(tw.template, tw.final, tw.seed, 0)
		must(err)
		grads[c.ID], weights[c.ID] = g, c.Weight()
	}
	return grads, weights
}

// layerMetrics produces every per-layer metric of one workload: means
// of the existing telemetry timers from the traced episodes, counts
// from their counters, and replays of each layer's public functions.
func layerMetrics(ctx context.Context, cfg runConfig, tw *twin, plain, traced episodeSet, reg *telemetry.Registry, tr *tracer) (res *layerResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	s := cfg.spec
	v := make(map[string]float64, len(perLayer))
	episodes := float64(len(traced))
	timer := func(name string) telemetry.TimerStats { return reg.Timer(name).Stats() }
	counter := func(name string) float64 { return float64(reg.Counter(name).Value()) / episodes }
	// A short sync unlearn is repeated within an episode, so what the
	// unlearn counters count is taken per request.
	var unlearns float64
	for _, ep := range traced {
		unlearns += float64(ep.requests["unlearn"])
	}
	perUnlearn := func(name string) float64 { return float64(reg.Counter(name).Value()) / unlearns }

	// Live timers: means over the traced episodes.
	v["server.http_round_mean_ms"] = ms(timer(telemetry.ServerHTTPRound).Mean)
	v["server.round_wait_mean_ms"] = ms(timer(telemetry.ServerRoundWait).Mean)
	v["server.round_window_mean_ms"] = ms(timer(telemetry.ServerOpenWindow).Mean)
	v["server.unlearn_http_ms"] = ms(timer(telemetry.ServerHTTPUnlearn).Total) / unlearns
	v["fl.round_record_mean_us"] = us(timer(telemetry.FLRoundRecord).Mean)
	v["fl.round_aggregate_mean_us"] = us(timer(telemetry.FLRoundAggregate).Mean)
	v["fl.stream_fold_mean_us"] = us(timer(telemetry.FLStreamFold).Mean)
	v["fl.stream_resolve_mean_us"] = us(timer(telemetry.FLStreamResolve).Mean)
	v["history.compress_mean_us"] = us(timer(telemetry.HistoryCompress).Mean)
	v["unlearn.recover_round_mean_ms"] = ms(timer(telemetry.UnlearnRecoverRound).Mean)
	v["unlearn.estimate_mean_ms"] = ms(timer(telemetry.UnlearnEstimate).Mean)
	v["unlearn.aggregate_mean_us"] = us(timer(telemetry.UnlearnAggregate).Mean)
	v["unlearn.queue_pass_s"] = timer(telemetry.UnlearnQueuePass).Mean.Seconds()
	v["agent.upload_mean_ms"] = ms(timer(telemetry.ServerAgentUploadDur).Mean)
	v["unlearn.recovered_rounds"] = perUnlearn(telemetry.UnlearnRecoveredRounds)
	v["unlearn.pair_refreshes"] = perUnlearn(telemetry.UnlearnPairRefreshes)
	v["unlearn.fallbacks"] = perUnlearn(telemetry.UnlearnFallbacks)
	v["unlearn.clip_activations"] = perUnlearn(telemetry.UnlearnClipActivations)

	// Generator-side and process numbers.
	plainRate, tracedRate := median(plain.series(uploadsPerSec)), median(traced.series(uploadsPerSec))
	v["telemetry.overhead_pct"] = 100 * (plainRate - tracedRate) / plainRate
	v["server.upload_commit_p99_ms"] = median(plain.series(latencyQuantile(0.99)))
	v["process.num_gc"] = median(plain.series(func(ep *episodeResult) float64 { return float64(ep.numGC) }))
	v["process.gc_pause_ms"] = median(plain.series(func(ep *episodeResult) float64 { return ms(ep.gcPause) }))
	v["generator.busy_share"] = median(plain.series(func(ep *episodeResult) float64 {
		return ep.busy.Seconds() / (ep.window.Seconds() * float64(runtime.NumCPU()))
	}))
	v["unlearn.queue_wait_ms"] = median(traced.series(func(ep *episodeResult) float64 { return ms(ep.queueWait) }))
	if s.kind == fleetCNN {
		agentRounds := counter(telemetry.ServerAgentRounds)
		v["agent.status_polls_per_round"] = median(traced.series(func(ep *episodeResult) float64 {
			return float64(ep.requests["status"])
		})) / agentRounds
		v["agent.round_ms"] = median(traced.series(func(ep *episodeResult) float64 { return ms(ep.window) })) *
			float64(s.vehicles) / agentRounds
		v["nn.kernel_gemm_mean_us"] = median(traced.series(func(ep *episodeResult) float64 { return us(ep.gemm) })) / agentRounds
	}

	rp := &replayer{tr: tr, root: tr.open("replay", 0, -1), budget: 60 * time.Millisecond, sec: make(map[string]float64)}
	if cfg.smoke {
		rp.budget = time.Millisecond
	}
	snapshotBytes := tw.replay(ctx, rp)
	tr.close(rp.root)
	for name, sec := range rp.sec {
		switch unitOf(name) {
		case "us":
			v[name] = sec * 1e6
		case "ms":
			v[name] = sec * 1e3
		default:
			v[name] = sec
		}
	}
	dim := float64(tw.dim)
	for _, name := range []string{"sign.compress_into_ns_per_elem", "sign.dense_into_ns_per_elem", "sign.accumulate_into_ns_per_elem"} {
		v[name] = rp.sec[name] * 1e9 / dim
	}
	storeMB := float64(snapshotBytes) / (1 << 20)
	v["history.save_mb_per_s"] = storeMB / rp.sec["history.save_mb_per_s"]
	v["history.load_mb_per_s"] = storeMB / rp.sec["history.load_mb_per_s"]
	v["unlearn.inproc_s"] = tw.unlearnTime.Seconds()

	// Reconciliation, per committed round of the traced episodes: the
	// server-side layers' time against the server's own round window,
	// and that window against the round as the generator saw it. The
	// engine records once per round, preloaded rounds included, so its
	// record count is the denominator for every engine-side timer.
	engineRounds := float64(timer(telemetry.FLRoundRecord).Count)
	perRound := func(name string) float64 { return ms(timer(name).Total) / engineRounds }
	layers := perRound(telemetry.FLRoundRecord) + perRound(telemetry.FLRoundAggregate) + perRound(telemetry.FLStreamFold)
	v["server.unaccounted_ms_per_round"] = v["server.round_window_mean_ms"] - layers
	var genRound float64
	for _, ep := range traced {
		genRound += ms(ep.window) / float64(ep.rounds) / episodes
	}
	recon := map[string]float64{
		"generator_round":    genRound,
		"server_window":      v["server.round_window_mean_ms"],
		"between_windows":    genRound - v["server.round_window_mean_ms"],
		"fl.record":          perRound(telemetry.FLRoundRecord),
		"history.compress":   perRound(telemetry.HistoryCompress),
		"fl.aggregate":       perRound(telemetry.FLRoundAggregate),
		"fl.stream_fold":     perRound(telemetry.FLStreamFold),
		"server.unaccounted": v["server.unaccounted_ms_per_round"],
		// Client compute overlaps across cores; this is its serial sum.
		"client_compute_serial": v["fl.compute_gradient_ms"] * counter(telemetry.ServerAgentRounds) * episodes / engineRounds,
	}
	logf("%s: per-round reconciliation (ms): generator %.3f = server window %.3f + between windows %.3f; window = fl.record %.3f (history.compress %.3f) + fl.aggregate %.3f + fl.stream_fold %.3f + unaccounted %.3f; client compute, serial sum %.3f",
		s.name, recon["generator_round"], recon["server_window"], recon["between_windows"], recon["fl.record"],
		recon["history.compress"], recon["fl.aggregate"], recon["fl.stream_fold"], recon["server.unaccounted"], recon["client_compute_serial"])

	out := make(map[string]metricValue, len(perLayer))
	for _, def := range perLayer {
		out[def.Name] = metricValue{Value: v[def.Name], Unit: def.Unit}
	}
	return &layerResult{values: out, reconciliation: recon}, nil
}

// unitOf is a per-layer metric's unit ("" for names outside the list).
func unitOf(name string) string {
	for _, def := range perLayer {
		if def.Name == name {
			return def.Unit
		}
	}
	return ""
}

// replay measures each layer from outside. Layers the workload never
// enters keep their zero: client compute on the synthetic workloads,
// the overlapped commit pass on the sync ones.
func (tw *twin) replay(ctx context.Context, rp *replayer) (snapshotBytes int) {
	s, dim := tw.spec, tw.dim
	grads, weights := tw.gradients()
	ids := make([]history.ClientID, 0, len(grads))
	for id := range grads {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	grad := grads[ids[0]]
	scratch := make([]float64, dim)

	// sign: the codec on one upload of the workload's dimension.
	dir := &sign.Direction{}
	rp.time("sign.compress_into_ns_per_elem", 1, func() { must(sign.CompressInto(dir, grad, signDelta)) })
	rp.time("sign.dense_into_ns_per_elem", 1, func() { dir.DenseInto(scratch) })
	rp.time("sign.accumulate_into_ns_per_elem", 1, func() { dir.AccumulateInto(scratch, 1) })
	encoded := dir.Encode()
	rp.time("sign.encode_us", 1, func() { _ = dir.Encode() })
	rp.time("sign.decode_us", 1, func() { _, err := sign.Decode(encoded); must(err) })

	// server: frame and model codecs, and the status handler.
	var dense, packed, model bytes.Buffer
	must(server.WriteUpload(&dense, ids[0], 0, 1, server.EncodingDense, grad, 0, 1))
	must(server.WriteUpload(&packed, ids[0], 0, 1, server.EncodingSign, grad, signDelta, 1))
	rp.time("server.read_upload_dense_us", 1, func() {
		_, err := server.ReadUpload(bytes.NewReader(dense.Bytes()), dim)
		must(err)
	})
	rp.time("server.read_upload_sign_us", 1, func() {
		_, err := server.ReadUpload(bytes.NewReader(packed.Bytes()), dim)
		must(err)
	})
	rp.time("server.write_model_us", 1, func() {
		model.Reset()
		must(server.WriteModel(&model, s.rounds, tw.final))
	})
	rp.time("server.read_model_us", 1, func() {
		_, _, err := server.ReadModel(bytes.NewReader(model.Bytes()), dim)
		must(err)
	})
	coord, err := server.New(server.Config{Engine: tw.sim, MaxRounds: s.rounds})
	must(err)
	statusReq := httptest.NewRequest(http.MethodGet, "/v1/status", nil)
	rp.time("server.status_us", 1, func() {
		w := httptest.NewRecorder()
		coord.ServeHTTP(w, statusReq)
		if w.Code != http.StatusOK {
			panic(fmt.Sprintf("replay: GET /v1/status: %d", w.Code))
		}
	})
	must(coord.Close())

	// fl and history write path: barrier and streamed commits of one
	// round of the workload's uploads, each on a fresh engine.
	barrier, err := buildEngine(s, tw.seed, false, nil)
	must(err)
	rp.time("fl.submit_round_ms", 1, func() { must(barrier.sim.SubmitRound(grads, weights, len(grads))) })
	must(barrier.store.Close())
	rp.time("fl.aggregate_into_us", 1, func() { must(fl.FedAvg{}.AggregateInto(scratch, ids, grads, weights)) })
	streamed, err := buildEngine(s, tw.seed, true, nil)
	must(err)
	var adds, submits []float64
	for start := time.Now(); len(submits) < 5 || (time.Since(start) < 2*rp.budget && len(submits) < 200); {
		rs, err := streamed.sim.NewRoundStream()
		must(err)
		for _, id := range ids {
			t0 := time.Now()
			must(rs.Add(id, grads[id], weights[id]))
			t1 := time.Now()
			rp.tr.add("replay.fl.stream_add_us", rp.root, -1, t0, t1)
			adds = append(adds, t1.Sub(t0).Seconds())
		}
		t0 := time.Now()
		must(streamed.sim.SubmitRoundStream(rs, len(ids)))
		t1 := time.Now()
		rp.tr.add("replay.fl.stream_submit_us", rp.root, -1, t0, t1)
		submits = append(submits, t1.Sub(t0).Seconds())
	}
	rp.sec["fl.stream_add_us"], rp.sec["fl.stream_submit_us"] = median(adds), median(submits)
	must(streamed.store.Close())

	fresh, err := history.NewStore(dim, signDelta)
	must(err)
	rp.time("history.record_round_ms", 1, func() { must(fresh.RecordRound(fresh.Rounds(), tw.final, grads, weights)) })
	dirs := make(map[history.ClientID]*sign.Direction, len(grads))
	for id, g := range grads {
		dirs[id], err = sign.Compress(g, signDelta)
		must(err)
	}
	rp.time("history.record_round_dirs_us", 1, func() { must(fresh.RecordRoundDirs(fresh.Rounds(), tw.final, dirs, weights)) })
	must(fresh.Close())

	// history read path, over the twin's full store.
	store, round := tw.store, 0
	next := func() int { round = (round + 1) % s.rounds; return round }
	rp.time("history.model_into_us", 1, func() { must(store.ModelInto(next(), scratch)) })
	remaining := ids[0]
	if remaining == tw.victim {
		remaining = ids[1]
	}
	rp.time("history.direction_us", 1000, func() { _, err := store.Direction(next(), remaining); must(err) })
	rp.time("history.view_us", 1, func() { _ = store.View() })
	var snapshot bytes.Buffer
	rp.budget /= 4 // one Save or Load of the whole history is already long
	rp.time("history.save_mb_per_s", 1, func() { snapshot.Reset(); must(store.Save(&snapshot)) })
	rp.time("history.load_mb_per_s", 1, func() {
		loaded, err := history.Load(bytes.NewReader(snapshot.Bytes()))
		must(err)
		must(loaded.Close())
	})
	rp.budget *= 4

	// lbfgs: s = 2 pairs with positive curvature at the workload's
	// dimension, as the recovery builds them.
	r := rng.New(rng.Mix(tw.seed, 0x1bf6))
	dW, dG := make([][]float64, 2), make([][]float64, 2)
	for i := range dW {
		dW[i], dG[i] = make([]float64, dim), make([]float64, dim)
		for k := range dW[i] {
			dW[i][k] = r.Normal()
			dG[i][k] = dW[i][k]*r.Uniform(0.5, 1.5) + 0.01*r.Normal()
		}
	}
	approx, err := lbfgs.New(dW, dG)
	must(err)
	rp.time("lbfgs.new_us", 1, func() { _, err := lbfgs.New(dW, dG); must(err) })
	rp.time("lbfgs.hvp_into_us", 1, func() { must(approx.HVPInto(scratch, dW[0])) })

	// unlearn: backtracking, and (unlearn_overlap) the overlapped
	// commit pass — Advance over the recorded history, then Commit with
	// two rounds appended since, the sliver the engine lock is held for.
	u, err := unlearn.New(store, tw.unlearnCfg)
	must(err)
	rp.time("unlearn.backtrack_us", 1, func() { _, _, err := u.Backtrack(tw.victim); must(err) })
	if s.kind == overlap {
		cp, err := u.BeginCommit(tw.victim)
		must(err)
		t0 := time.Now()
		_, err = cp.Advance(ctx)
		must(err)
		t1 := time.Now()
		rp.tr.add("replay.unlearn.advance_ms_per_round", rp.root, -1, t0, t1)
		rp.sec["unlearn.advance_ms_per_round"] = t1.Sub(t0).Seconds() / float64(cp.Recovered())
		must(tw.submitSynthetic(s.rounds, s.rounds+2))
		t0 = time.Now()
		_, rewritten, err := cp.Commit(ctx)
		must(err)
		t1 = time.Now()
		rp.tr.add("replay.unlearn.commit_sliver_ms", rp.root, -1, t0, t1)
		rp.sec["unlearn.commit_sliver_ms"] = t1.Sub(t0).Seconds()
		must(rewritten.Close())
	}

	// nn and tensor: only fleet_cnn computes anything client-side.
	if s.kind == fleetCNN {
		c := tw.clients[0]
		rp.time("fl.compute_gradient_ms", 1, func() {
			_, err := c.ComputeGradient(tw.template, tw.final, tw.seed, 0)
			must(err)
		})
		net := tw.template.Clone()
		net.SetParamVector(tw.final)
		x, labels := c.Data.FullBatch()
		rp.time("nn.forward_backward_ms", 1, func() { net.LossAndGrad(x, labels) })
		// The second convolution's per-sample GEMM: 8×36 by 36×36.
		a, b, dst := tensor.NewMatrix(8, 36), tensor.NewMatrix(36, 36), tensor.NewMatrix(8, 36)
		for k := range a.Data {
			a.Data[k] = r.Normal()
		}
		for k := range b.Data {
			b.Data[k] = r.Normal()
		}
		rp.time("tensor.matmul_into_us", 100, func() { tensor.MatMulInto(dst, a, b) })
	}
	return snapshot.Len()
}
