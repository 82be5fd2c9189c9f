package main

import (
	"time"

	"fuiov/internal/server"
)

// kind selects how a workload's fleet produces uploads.
type kind int

const (
	// fleetCNN drives real agent.Agent vehicles that fetch the model,
	// compute a CNN gradient and upload it.
	fleetCNN kind = iota
	// ingest drives synthetic vehicles that upload pre-encoded frames.
	ingest
	// overlap is ingest with the history preloaded in-process and an
	// async unlearn running beside the live uploads.
	overlap
)

// spec is one workload's shape. Every size lives here so the smoke
// variants shrink R and the episode count, never the shape.
type spec struct {
	name string
	why  string
	kind kind
	// vehicles is the fleet size K, the victim included.
	vehicles int
	// rounds is R: the rounds served over HTTP on the sync workloads,
	// the rounds preloaded in-process on unlearn_overlap.
	rounds int
	// hidden is the synthetic MLP's hidden width (256-hidden-10).
	hidden int
	// lr is the engine's learning rate.
	lr float64
	// clip is unlearn.Config.ClipThreshold (0 = the paper's default).
	clip      float64
	streaming bool
	encoding  server.Encoding
	// think is the per-vehicle pause before each upload (overlap only).
	think time.Duration
	// warmRounds is how many live rounds unlearn_overlap serves before
	// the unlearn request is posted.
	warmRounds int
	// unlearnFloor is how long an episode keeps repeating a sync
	// unlearn request before it reports the median: a recovery of a few
	// milliseconds is at the scheduler's mercy, one of a second is not.
	unlearnFloor time.Duration
	// accuracyFloor is the test accuracy the trained model must reach
	// (fleet_cnn at full size: chance on the 12-class task is 0.083, and
	// 160 rounds reach 0.45–0.6 depending on the seed). 0 skips the check.
	accuracyFloor float64
	// minEpisodes is the fewest episodes a run measures, whatever the
	// time budget.
	minEpisodes int
}

// joinRound is F, the round the victim joins: backtracking lands on
// w_F and the L-BFGS bootstrap reads rounds F−2 and F−1.
func (s spec) joinRound() int { return s.rounds / 8 }

// workloads lists the benchmark's workloads in BENCHMARK.json order.
// The full sizes give episodes of 1.5–3 s on two cores, so a 20 s run
// holds six or more and its medians settle.
var workloads = []spec{
	{
		name: "fleet_cnn",
		why:  "8 real agents train the TrafficCNN over HTTP: client compute and agent round-trips dominate, server layers idle (dim 1212)",
		kind: fleetCNN, vehicles: 8, rounds: 160, lr: 0.12, clip: 0.05,
		unlearnFloor: 200 * time.Millisecond, accuracyFloor: 0.3, minEpisodes: 3,
	},
	{
		name: "ingest_dense",
		why:  "16 synthetic vehicles upload 273 KB dense frames in barrier mode: decode, sign compression, history record, aggregation; deep sync unlearn",
		kind: ingest, vehicles: 16, rounds: 160, hidden: 128, lr: 0.01,
		unlearnFloor: 200 * time.Millisecond, minEpisodes: 3,
	},
	{
		name: "ingest_sign_stream",
		why:  "same fleet with 8.6 KB sign frames folded on arrival: LUT decode, RoundStream.Add, RecordRoundDirs instead of the dense path",
		kind: ingest, vehicles: 16, rounds: 160, hidden: 128, lr: 0.01,
		streaming: true, encoding: server.EncodingSign,
		unlearnFloor: 200 * time.Millisecond, minEpisodes: 3,
	},
	{
		name: "unlearn_overlap",
		why:  "async unlearn of a preloaded history while the fleet keeps uploading: history reads beside writes, queue, commit pass, lock and GC contention",
		kind: overlap, vehicles: 16, rounds: 96, hidden: 128, lr: 0.01,
		think: 50 * time.Millisecond, warmRounds: 3,
		minEpisodes: 3,
	},
}

// smoke shrinks a workload to a size the test suite runs in well under
// a second: same fleet, same model, a handful of rounds.
func (s spec) smoke() spec {
	s.rounds = 16
	s.minEpisodes = 1
	s.unlearnFloor = 0
	s.accuracyFloor = 0
	return s
}

// lookup finds a workload by name.
func lookup(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}
