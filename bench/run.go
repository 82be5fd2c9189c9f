package main

import (
	"context"
	"fmt"
	"os"
	"slices"
	"time"

	"fuiov/internal/telemetry"
)

// runResult is one run of one workload: the record -record appends,
// -compare reads, and the contract line is cut from.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Seconds   int                    `json:"seconds"`
	Episodes  int                    `json:"episodes"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	ErrorRate float64                `json:"error_rate"`
	Errors    []string               `json:"errors,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Spread holds, per end-to-end metric, the episode values' median
	// and quartiles and the sample count behind the reported value.
	Spread map[string]summary `json:"spread,omitempty"`
}

// episodeSet is the episodes of one configuration (traced or not) of
// a run.
type episodeSet []*episodeResult

// series extracts one number per episode.
func (es episodeSet) series(f func(*episodeResult) float64) []float64 {
	out := make([]float64, len(es))
	for i, ep := range es {
		out[i] = f(ep)
	}
	return out
}

// committed is an episode's count of committed uploads in its window.
func committed(ep *episodeResult) float64 { return float64(len(ep.latencies)) }

func uploadsPerSec(ep *episodeResult) float64 { return committed(ep) / ep.window.Seconds() }

// latencyQuantile is the q-quantile of one episode's upload latencies,
// in milliseconds.
func latencyQuantile(q float64) func(*episodeResult) float64 {
	return func(ep *episodeResult) float64 {
		sorted := make([]float64, len(ep.latencies))
		for i, d := range ep.latencies {
			sorted[i] = ms(d)
		}
		slices.Sort(sorted)
		return quantile(sorted, q)
	}
}

// endToEndMetrics reduces the episodes to the end-to-end metrics, each
// the median over episodes. The latency percentiles are taken inside
// each episode (hundreds to thousands of uploads) and then medianed
// like the rest: pooling the uploads instead would let one episode
// that ran while the machine was slowed set the tail for the run.
func (es episodeSet) endToEndMetrics() (map[string]metricValue, map[string]summary) {
	perEpisode := map[string][]float64{
		"setup_s":              es.series(func(ep *episodeResult) float64 { return ep.setup.Seconds() }),
		"uploads_per_s":        es.series(uploadsPerSec),
		"upload_commit_p50_ms": es.series(latencyQuantile(0.50)),
		"upload_commit_p90_ms": es.series(latencyQuantile(0.90)),
		"unlearn_serving_s":    es.series(func(ep *episodeResult) float64 { return ep.unlearnServing.Seconds() }),
		"wire_bytes_per_upload": es.series(func(ep *episodeResult) float64 {
			return float64(ep.wireBytes) / float64(ep.requests["upload"])
		}),
		"history_bytes_per_round": es.series(func(ep *episodeResult) float64 { return ep.historyBytes }),
		"live_heap_mb":            es.series(func(ep *episodeResult) float64 { return float64(ep.liveHeap) / (1 << 20) }),
		"alloc_kb_per_upload": es.series(func(ep *episodeResult) float64 {
			return float64(ep.allocBytes) / 1024 / committed(ep)
		}),
	}
	out := make(map[string]metricValue, len(endToEnd))
	spread := make(map[string]summary, len(endToEnd))
	for _, def := range endToEnd {
		spread[def.Name] = summarize(perEpisode[def.Name])
		out[def.Name] = metricValue{Value: spread[def.Name].Median, Unit: def.Unit}
	}
	return out, spread
}

// tally sums the episodes' operation counts into the result.
func (res *runResult) tally(sets ...episodeSet) {
	for _, es := range sets {
		for _, ep := range es {
			res.Attempted += ep.attempted
			res.Failed += ep.failed
			for _, e := range ep.errs {
				if len(res.Errors) < 8 {
					res.Errors = append(res.Errors, e)
				}
			}
		}
	}
	res.Correct = res.Failed == 0
	if res.Attempted > 0 {
		res.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	}
}

// runConfig is one run's arguments.
type runConfig struct {
	spec    spec
	seed    uint64
	seconds int
	trace   bool
	smoke   bool
	outdir  string
}

// runWorkload measures one workload for about cfg.seconds seconds.
//
// Untraced, it repeats identical episodes (Telemetry nil everywhere)
// until the budget is spent and reports the end-to-end metrics. Traced,
// it alternates untraced and traced episodes — their throughput ratio
// is the tracing overhead — then replays each layer's public functions
// over the workload's own inputs and reports the per-layer metrics.
func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	s := cfg.spec
	res := &runResult{Workload: s.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds}
	g := newGenerator(s.vehicles)
	budget := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		// The replays that follow the episodes take the rest.
		budget = budget * 7 / 10
	}
	if cfg.smoke {
		budget = 0 // the minimum number of episodes, no more
	}

	// One discarded small episode opens the code paths and grows the
	// heap before anything is timed; the twin then fixes the expected
	// outputs for every episode of this seed.
	if !cfg.smoke {
		warm := s.smoke()
		tw, err := computeTwin(ctx, warm, cfg.seed, false)
		if err != nil {
			return nil, fmt.Errorf("warm-up twin: %w", err)
		}
		if _, err := runEpisode(ctx, warm, cfg.seed, g, tw, nil, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	tw, err := computeTwin(ctx, s, cfg.seed, cfg.trace)
	if err != nil {
		return nil, fmt.Errorf("twin: %w", err)
	}

	var plain, traced episodeSet
	// One registry for all traced episodes: timers report means, so
	// more episodes only steady them.
	var reg *telemetry.Registry
	var tr *tracer
	if cfg.trace {
		reg, tr = telemetry.New(), newTracer()
	}
	start := time.Now()
	var longest time.Duration
	minEpisodes := s.minEpisodes
	if cfg.trace {
		minEpisodes = min(minEpisodes, 2) // each counts twice here
	}
	for n := 0; ; n++ {
		// Start another episode only if it should fit in the budget.
		if n >= minEpisodes && time.Since(start)+longest > budget {
			break
		}
		t0 := time.Now()
		ep, err := runEpisode(ctx, s, cfg.seed, g, tw, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", n, err)
		}
		plain = append(plain, ep)
		if cfg.trace {
			tr.setEpisode(n)
			ep, err := runEpisode(ctx, s, cfg.seed, g, tw, reg, tr)
			if err != nil {
				return nil, fmt.Errorf("traced episode %d: %w", n, err)
			}
			traced = append(traced, ep)
		}
		longest = max(longest, time.Since(t0))
		logf("%s: episode %d: %.2fs (set-up %.3fs, uploads %.2fs at %.0f/s, unlearn %.3fs)", s.name, n,
			time.Since(t0).Seconds(), ep.setup.Seconds(), ep.window.Seconds(), uploadsPerSec(ep), ep.unlearnServing.Seconds())
	}
	res.Episodes = len(plain)
	res.tally(plain, traced)

	if !cfg.trace {
		res.Metrics, res.Spread = plain.endToEndMetrics()
		return res, nil
	}
	lm, err := layerMetrics(ctx, cfg, tw, plain, traced, reg, tr)
	if err != nil {
		return nil, err
	}
	res.Metrics = lm.values
	if err := tr.write(cfg.outdir, s.name, cfg.seed, lm.reconciliation); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return res, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
