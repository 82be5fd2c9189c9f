package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"time"

	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/par"
	"fuiov/internal/rng"
)

// ScaleConfig parameterises the streaming-aggregation scale benchmark:
// fleet sizes far beyond what per-client buffering could hold, drawn
// by fl.Sampler and driven through the primitives the engine uses —
// fl.ShardedFedAvg for the fold/resolve path and history.Bitmap for
// responder tracking. Gradients are synthetic (deterministic per
// (seed, client, round)) so the benchmark measures the aggregation
// path, not model compute.
type ScaleConfig struct {
	// Registered are the fleet sizes to sweep (e.g. 1e4, 1e5, 1e6).
	Registered []int
	// Cohort is the sampled cohort size per round; 0 folds every
	// registered client (the million-upload headline case).
	Cohort int
	// Dim is the model dimension (small: the benchmark scales clients,
	// not parameters).
	Dim int
	// Shards is the accumulator count P; 0 = GOMAXPROCS.
	Shards int
	// Rounds per fleet size.
	Rounds int
	// Seed drives the synthetic gradients and the cohort draws.
	Seed uint64
	// Parallelism bounds the synthetic-gradient workers; 0 = GOMAXPROCS.
	Parallelism int
}

// DefaultScaleConfig is the checked-in BENCH_scale.json sweep: rounds
// of ten thousand, a hundred thousand and a million clients on a
// 64-parameter model. The shard count is pinned (not GOMAXPROCS) so
// the result checksum is identical on every machine.
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{
		Registered: []int{10_000, 100_000, 1_000_000},
		Dim:        64,
		Shards:     8,
		Rounds:     3,
		Seed:       42,
	}
}

// ScaleRow is one fleet size's measurement. The memory columns are the
// benchmark's point: AggBytes (the shard accumulators) stays constant
// across fleet sizes while BarrierBytesProjected (what buffering the
// cohort would cost) grows linearly — flat aggregation memory.
type ScaleRow struct {
	// Registered is the fleet size; Cohort the uploads folded per round.
	Registered int `json:"registered"`
	Cohort     int `json:"cohort"`
	Rounds     int `json:"rounds"`
	Dim        int `json:"dim"`
	Shards     int `json:"shards"`
	// RoundsPerSec and UploadsPerSec are wall-clock throughput.
	RoundsPerSec  float64 `json:"rounds_per_sec"`
	UploadsPerSec float64 `json:"uploads_per_sec"`
	// AggBytes is the resident accumulator footprint (8·dim·P): the
	// round's aggregation memory, independent of the cohort size.
	AggBytes int64 `json:"agg_bytes"`
	// SamplerBytes (4·N) and BitmapBytes (N/8) are the registry-scale
	// bookkeeping that replaces per-client maps.
	SamplerBytes int64 `json:"sampler_bytes"`
	BitmapBytes  int64 `json:"bitmap_bytes"`
	// BarrierBytesProjected is what the barrier path would retain for
	// the same cohort (8·dim·cohort) — the memory the streaming path
	// avoids.
	BarrierBytesProjected int64 `json:"barrier_bytes_projected"`
	// PeakHeapBytes is the maximum live heap sampled during the sweep
	// (runtime.ReadMemStats.HeapAlloc) — the flat-memory evidence.
	PeakHeapBytes int64 `json:"peak_heap_bytes"`
	// Checksum is the sum of the final resolved aggregate's elements:
	// a cross-run determinism witness for fixed (seed, config).
	Checksum float64 `json:"checksum"`
}

// synthGrad fills g deterministically from (seed, id, t) with an
// inline xorshift so the generator allocates nothing and the uploads
// are reproducible across runs and machines.
func synthGrad(g []float64, seed uint64, id history.ClientID, t int) {
	x := rng.Mix(seed, uint64(id), uint64(t))
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	for j := range g {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		g[j] = float64(int64(x)) * (1.0 / (1 << 63))
	}
}

// heapPeak samples the live heap; call touch periodically and read max
// at the end.
type heapPeak struct {
	max uint64
}

func (h *heapPeak) touch() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.max {
		h.max = ms.HeapAlloc
	}
}

// ScaleBench runs the sweep: for each fleet size, Rounds streamed
// rounds of Cohort uploads each, folded through fl.ShardedFedAvg in
// ascending-client order exactly like the engine's streaming path —
// parallel synthesis in bounded chunks, sequential folds, one
// fixed-order tree resolve per round. A cancelled ctx stops the sweep
// at the next chunk.
func ScaleBench(ctx context.Context, cfg ScaleConfig) ([]ScaleRow, error) {
	def := DefaultScaleConfig()
	if len(cfg.Registered) == 0 {
		cfg.Registered = def.Registered
	}
	if cfg.Dim <= 0 {
		cfg.Dim = def.Dim
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = def.Rounds
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The shard default is pinned, not GOMAXPROCS: the tree
	// reassociation depends on P, so a machine-dependent default would
	// make the checksum machine-dependent too.
	shards := cfg.Shards
	if shards <= 0 {
		shards = def.Shards
	}

	rows := make([]ScaleRow, 0, len(cfg.Registered))
	for _, n := range cfg.Registered {
		if n <= 0 {
			return nil, fmt.Errorf("experiments: non-positive fleet size %d", n)
		}
		cohortK := cfg.Cohort
		if cohortK <= 0 || cohortK > n {
			cohortK = n
		}
		stream, err := fl.NewShardedFedAvg(cfg.Dim, shards)
		if err != nil {
			return nil, err
		}
		sampler := &fl.Sampler{Seed: cfg.Seed, K: cohortK}
		resp := history.NewBitmap(n)

		// Chunked fold scratch: the only gradient memory in flight,
		// O(chunk × dim) regardless of the fleet size.
		chunk := workers * 256
		if chunk > cohortK {
			chunk = cohortK
		}
		bufs := make([][]float64, chunk)
		for i := range bufs {
			bufs[i] = make([]float64, cfg.Dim)
		}
		out := make([]float64, cfg.Dim)
		// synth fills bufs[i] with batch[i]'s round gradient, for the
		// chunk of the cohort being folded.
		var batch []int32
		var round int
		synth := par.Loop{Body: func(lo, hi int) {
			for i := lo; i < hi; i++ {
				synthGrad(bufs[i], cfg.Seed, history.ClientID(batch[i]), round)
			}
		}}

		var peak heapPeak
		peak.touch()
		start := time.Now()
		for t := 0; t < cfg.Rounds; t++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cohort := sampler.Cohort(t, n)
			slices.Sort(cohort) // ascending-ID fold order, as in the engine
			resp.Reset()
			stream.Reset()
			for lo := 0; lo < len(cohort); lo += chunk {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				hi := min(lo+chunk, len(cohort))
				batch, round = cohort[lo:hi], t
				synth.Run(len(batch), workers)
				for i := lo; i < hi; i++ {
					id := history.ClientID(cohort[i])
					weight := 1 + float64(id%8)
					if err := stream.Add(id, bufs[i-lo], weight); err != nil {
						return nil, err
					}
					resp.Set(int(id))
				}
			}
			if err := stream.Resolve(out); err != nil {
				return nil, err
			}
			if resp.Count() != len(cohort) {
				return nil, fmt.Errorf("experiments: bitmap counted %d responders, folded %d", resp.Count(), len(cohort))
			}
			peak.touch()
		}
		elapsed := time.Since(start).Seconds()
		if elapsed <= 0 {
			elapsed = 1e-9
		}
		var checksum float64
		for _, v := range out {
			checksum += v
		}
		rows = append(rows, ScaleRow{
			Registered:            n,
			Cohort:                cohortK,
			Rounds:                cfg.Rounds,
			Dim:                   cfg.Dim,
			Shards:                shards,
			RoundsPerSec:          float64(cfg.Rounds) / elapsed,
			UploadsPerSec:         float64(cfg.Rounds*cohortK) / elapsed,
			AggBytes:              int64(stream.Bytes()),
			SamplerBytes:          int64(4 * n),
			BitmapBytes:           int64(resp.Bytes()),
			BarrierBytesProjected: int64(8 * cfg.Dim * cohortK),
			PeakHeapBytes:         int64(peak.max),
			Checksum:              checksum,
		})
	}
	return rows, nil
}

// FormatScale renders the sweep as the stdout table.
func FormatScale(rows []ScaleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale — streamed sharded aggregation (flat memory vs fleet size)\n")
	fmt.Fprintf(&b, "%12s %12s %8s %14s %12s %14s %14s %14s\n",
		"clients", "cohort", "shards", "uploads/s", "rounds/s", "agg bytes", "barrier bytes", "peak heap")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12d %12d %8d %14.0f %12.2f %14d %14d %14d\n",
			r.Registered, r.Cohort, r.Shards, r.UploadsPerSec, r.RoundsPerSec,
			r.AggBytes, r.BarrierBytesProjected, r.PeakHeapBytes)
	}
	return b.String()
}

// WriteScaleJSON writes the BENCH_scale.json artefact.
func WriteScaleJSON(w io.Writer, rows []ScaleRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Experiment string     `json:"experiment"`
		MaxProcs   int        `json:"maxprocs"`
		Rows       []ScaleRow `json:"rows"`
	}{
		Experiment: "scale",
		MaxProcs:   runtime.GOMAXPROCS(0),
		Rows:       rows,
	})
}
