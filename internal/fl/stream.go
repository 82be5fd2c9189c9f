package fl

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"fuiov/internal/history"
	"fuiov/internal/rng"
	"fuiov/internal/sign"
	"fuiov/internal/tensor"
)

// ErrDuplicateUpload marks a second upload from the same client inside
// one round: RoundStream tracks responders in a bitmap and surfaces
// repeats through this sentinel.
var ErrDuplicateUpload = errors.New("fl: duplicate upload")

// StreamAggregator receives a round's uploads one at a time, as they
// arrive, and reduces them at Resolve. The engine has two, both FedAvg.
// The sharded implementation (ShardedFedAvg, under Config.Streaming)
// folds each upload into bounded accumulator state and never keeps a
// reference to grad — callers reuse the buffer for the next upload — so
// a round's aggregation memory is the accumulators, not
// O(cohort × dim). The buffering implementation (cohortBuffer,
// otherwise) keeps every upload until Resolve sums the whole cohort.
//
// Determinism contract of the sharded implementation: the resolved
// result is a pure function of the per-shard fold sequences. Shard
// assignment is ShardOf (a fixed hash of the ClientID), so for a given
// (shard count, cohort) every client lands in the same shard on every
// run; any two arrival orders that agree on the relative order of
// clients *within* each shard produce bit-identical results, and
// Resolve reduces the shards in fixed index order. Drivers that fold
// in ascending client order (the in-process round loop, the scale
// benchmark) are therefore bit-reproducible run to run; concurrent
// folding (the networked coordinator) is deterministic given per-shard
// arrival order. With one shard and ascending-ID folds the result is
// bit-identical to FedAvg.AggregateInto's sorted sequential sum — that
// is, to the buffering implementation, whose result does not depend on
// arrival order at all.
type StreamAggregator interface {
	// Add takes one upload. Safe for concurrent use.
	Add(id history.ClientID, grad []float64, weight float64) error
	// Resolve writes the aggregate into dst (length dim) with a
	// fixed-order reduction over the accumulators. It must not be
	// called concurrently with Add; it does not reset the stream.
	Resolve(dst []float64) error
	// Folded returns the number of uploads taken since the last Reset.
	Folded() int
	// Reset discards the round's uploads, ready for the next round.
	Reset()
	// Bytes reports the resident size of the aggregation state — the
	// quantity the scale benchmark tracks as "aggregation memory".
	Bytes() int
}

// cohortBuffer is the barrier: the StreamAggregator of a round that
// is not streamed. Add keeps the upload (the gradient itself, not a
// copy — the caller hands the buffer over until the next Reset), and
// Resolve runs FedAvg over the whole cohort in ascending-ID order, so
// the result does not depend on arrival order and full-gradient
// Recorders see the cohort's maps.
type cohortBuffer struct {
	// parallelism bounds Resolve's element-range split (the engine's
	// Config.Parallelism).
	parallelism int
	agg         RangeAggregator

	mu      sync.Mutex
	ids     []history.ClientID
	grads   map[history.ClientID][]float64
	weights map[history.ClientID]float64
}

var _ StreamAggregator = (*cohortBuffer)(nil)

// Add implements StreamAggregator.
func (b *cohortBuffer) Add(id history.ClientID, grad []float64, weight float64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.grads == nil {
		b.grads = make(map[history.ClientID][]float64)
		b.weights = make(map[history.ClientID]float64)
	}
	b.ids = append(b.ids, id)
	b.grads[id] = grad
	b.weights[id] = weight
	return nil
}

// Resolve implements StreamAggregator: FedAvg.AggregateInto over the
// sorted IDs — Aggregate's summation order without its per-round
// result allocation — split over element ranges by the
// RangeAggregator, whose bits do not depend on the split.
func (b *cohortBuffer) Resolve(dst []float64) error {
	slices.Sort(b.ids)
	return b.agg.Aggregate(dst, b.ids, b.grads, b.weights, b.parallelism)
}

// Folded implements StreamAggregator.
func (b *cohortBuffer) Folded() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.ids)
}

// Reset implements StreamAggregator. The maps are cleared, not
// reallocated: a Recorder must not retain what it was handed, so
// nothing outside the buffer still holds them, and dropping the
// gradients here is what lets a caller reuse an upload's buffer once
// its round has committed or aborted.
func (b *cohortBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ids = b.ids[:0]
	clear(b.grads)
	clear(b.weights)
}

// Bytes implements StreamAggregator: the retained gradients.
func (b *cohortBuffer) Bytes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, g := range b.grads {
		n += 8 * len(g)
	}
	return n
}

// ShardOf assigns a client to one of shards shard accumulators by a
// fixed hash of its ID (splitmix64 via rng.Mix, which is pure and
// process-independent). The assignment depends only on (id, shards):
// the same client folds into the same shard on every run, every
// machine, every arrival order — the root of the streaming path's
// determinism contract (DESIGN.md §15).
func ShardOf(id history.ClientID, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(rng.Mix(0x5a4d_f01d, uint64(id)) % uint64(shards))
}

// shardAcc is one shard's accumulator: the running weighted sum, the
// running weight total, and its own lock so concurrent Adds to
// different shards never contend.
type shardAcc struct {
	mu     sync.Mutex
	sum    []float64
	weight float64
	count  int
	// padding avoids false sharing between adjacent shards' hot words.
	_ [40]byte
}

// ShardedFedAvg is the streaming FedAvg accumulator: P shard
// accumulators of dim float64s each, a fixed-order pairwise tree
// reduction at Resolve, and nothing else — round memory is
// P·dim·8 bytes no matter how many clients fold in. With P = 1 and
// ascending-ID folds it reproduces FedAvg.AggregateInto bit for bit
// (same per-element fused order, same single normalisation at the
// end); with P > 1 results differ from the buffered sum only by
// float-addition reassociation (≤ 1e-12 relative in tests) and are
// bit-identical across runs for fixed per-shard fold orders.
type ShardedFedAvg struct {
	dim    int
	shards []shardAcc
	folded atomic.Int64

	// plan is Resolve's reduction tree, a function of P alone (see
	// treePlan); slots are its partial sums for one tile — a shard's
	// accumulator read in place, or the slot's own aggTile floats of
	// scratch once something has been added to it.
	plan    []treeStep
	slots   [][]float64
	owned   []bool
	slotW   []float64
	scratch []float64
}

var _ StreamAggregator = (*ShardedFedAvg)(nil)

// NewShardedFedAvg creates a streaming FedAvg accumulator with the
// given shard count (P ≥ 1).
func NewShardedFedAvg(dim, shards int) (*ShardedFedAvg, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("fl: sharded fedavg dimension %d", dim)
	}
	if shards <= 0 {
		return nil, fmt.Errorf("fl: sharded fedavg shard count %d", shards)
	}
	a := &ShardedFedAvg{dim: dim, shards: make([]shardAcc, shards)}
	for i := range a.shards {
		a.shards[i].sum = make([]float64, dim)
	}
	var depth int
	a.plan, depth = treePlan(shards)
	a.slots = make([][]float64, depth)
	a.owned = make([]bool, depth)
	a.slotW = make([]float64, depth)
	a.scratch = make([]float64, depth*min(aggTile, dim))
	return a, nil
}

// Add folds w·grad into the client's shard. It is safe for concurrent
// use (per-shard locking) and never retains grad.
func (a *ShardedFedAvg) Add(id history.ClientID, grad []float64, weight float64) error {
	return a.fold(id, grad, nil, 0, weight)
}

// AddDirection folds weight·scale·d into the client's shard straight
// off the packed form, leaving the bits Add(id, d.Scaled(scale), weight)
// would: weight·(scale·±1) and (weight·scale)·±1 are the same rounding
// of the same product, and a zero slot adds a zero either way
// (DESIGN.md §15). Only an overflowing weight·scale breaks that — ∞·0
// is NaN where weight·(scale·0) is 0 — so that one case folds the
// expansion instead.
func (a *ShardedFedAvg) AddDirection(id history.ClientID, d *sign.Direction, scale, weight float64) error {
	if math.IsInf(weight*scale, 0) {
		return a.fold(id, d.Scaled(scale), nil, 0, weight)
	}
	return a.fold(id, nil, d, scale, weight)
}

// fold adds one upload — grad, or the packed (d, scale) when d is not
// nil — to the client's shard under the shard's lock.
func (a *ShardedFedAvg) fold(id history.ClientID, grad []float64, d *sign.Direction, scale, weight float64) error {
	n := len(grad)
	if d != nil {
		n = d.Len()
	}
	if n != a.dim {
		return fmt.Errorf("fl: client %d gradient has %d params, want %d", id, n, a.dim)
	}
	if weight < 0 {
		return fmt.Errorf("fl: client %d has negative weight %v", id, weight)
	}
	sh := &a.shards[ShardOf(id, len(a.shards))]
	sh.mu.Lock()
	if d != nil {
		d.AccumulateInto(sh.sum, weight*scale)
	} else {
		// AggregateRange's kernel (sum[i] += w*v), so single-shard
		// ascending-ID streams are bit-identical to the buffering
		// aggregator.
		tensor.AxpyInPlace(sh.sum, weight, grad)
	}
	sh.weight += weight
	sh.count++
	sh.mu.Unlock()
	a.folded.Add(1)
	return nil
}

// Folded implements StreamAggregator.
func (a *ShardedFedAvg) Folded() int { return int(a.folded.Load()) }

// treeStep is one step of Resolve's reduction: load shard's
// accumulator into slot, or, when shard < 0, add slot+1 into slot.
type treeStep struct{ shard, slot int }

// treePlan lays out the pairwise tree over p shards as a level stack:
// shards enter in index order as level-0 partials; equal-level
// neighbours merge at once (earlier shards on the left), and the
// trailing, smaller partials finally fold into the earlier ones right
// to left — ((s0+s1)+(s2+s3))+… for any p. It returns the steps and
// the stack's depth, at most ⌈log₂p⌉+1.
func treePlan(p int) (steps []treeStep, depth int) {
	var levels []int
	for i := 0; i < p; i++ {
		steps = append(steps, treeStep{shard: i, slot: len(levels)})
		levels = append(levels, 0)
		depth = max(depth, len(levels))
		for n := len(levels); n >= 2 && levels[n-2] == levels[n-1]; n = len(levels) {
			steps = append(steps, treeStep{shard: -1, slot: n - 2})
			levels = levels[:n-1]
			levels[n-2]++
		}
	}
	for k := len(levels) - 2; k >= 0; k-- {
		steps = append(steps, treeStep{shard: -1, slot: k})
	}
	return steps, depth
}

// Resolve implements StreamAggregator: the fixed-shape pairwise tree
// of treePlan over the shard index, followed by one normalisation by
// the total weight, the same single division FedAvg.AggregateInto
// applies. The tree shape depends only on P, never on arrival order or
// on which shards happen to be empty, so the resolved bits are stable
// for a given (P, per-shard fold sequences). It runs one aggTile of
// elements at a time, reading the shard accumulators in place and
// adding partials with tensor.AxpyInPlace at weight 1 (1·v is v
// exactly); with one shard it only scales the accumulator into dst. The
// accumulators are read, not mutated: Resolve is repeatable and does
// not require a Reset first.
func (a *ShardedFedAvg) Resolve(dst []float64) error {
	if len(dst) != a.dim {
		return fmt.Errorf("fl: resolve into %d params, want %d", len(dst), a.dim)
	}
	if a.Folded() == 0 {
		return fmt.Errorf("fl: aggregate with no gradients")
	}
	w := a.slotW
	for _, st := range a.plan {
		if st.shard >= 0 {
			w[st.slot] = a.shards[st.shard].weight
		} else {
			w[st.slot] += w[st.slot+1]
		}
	}
	if w[0] == 0 {
		return fmt.Errorf("fl: total aggregation weight is zero")
	}
	inv := 1 / w[0]
	stride := min(aggTile, a.dim)
	for lo := 0; lo < a.dim; lo += aggTile {
		hi := min(lo+aggTile, a.dim)
		for _, st := range a.plan {
			k := st.slot
			if st.shard >= 0 {
				a.slots[k], a.owned[k] = a.shards[st.shard].sum[lo:hi], false
				continue
			}
			if !a.owned[k] {
				buf := a.scratch[k*stride:][:hi-lo]
				copy(buf, a.slots[k])
				a.slots[k], a.owned[k] = buf, true
			}
			tensor.AxpyInPlace(a.slots[k], 1, a.slots[k+1])
		}
		for j, v := range a.slots[0] {
			dst[lo+j] = v * inv
		}
	}
	return nil
}

// Reset implements StreamAggregator.
func (a *ShardedFedAvg) Reset() {
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		for j := range sh.sum {
			sh.sum[j] = 0
		}
		sh.weight = 0
		sh.count = 0
		sh.mu.Unlock()
	}
	a.folded.Store(0)
}

// Bytes implements StreamAggregator: the resident accumulator size,
// 8·dim bytes per shard.
func (a *ShardedFedAvg) Bytes() int { return 8 * a.dim * len(a.shards) }
