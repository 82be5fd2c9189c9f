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
// result allocation.
func (b *cohortBuffer) Resolve(dst []float64) error {
	slices.Sort(b.ids)
	return FedAvg{}.AggregateInto(dst, b.ids, b.grads, b.weights)
}

// Folded implements StreamAggregator.
func (b *cohortBuffer) Folded() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.ids)
}

// Reset implements StreamAggregator. The maps are dropped, not
// cleared: a Recorder may have kept the ones it was handed.
func (b *cohortBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ids, b.grads, b.weights = b.ids[:0], nil, nil
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

	// scratch is Resolve's reusable partial-sum pool: at most
	// ⌈log₂P⌉+1 buffers of dim floats, so the tree reduction allocates
	// only on its first run.
	scratch [][]float64
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
		// The per-element fold matches AggregateInto's inner loop
		// (dst[i] += w*v) so single-shard ascending-ID streams are
		// bit-identical to the buffering aggregator.
		sum := sh.sum
		for i, v := range grad {
			sum[i] += weight * v
		}
	}
	sh.weight += weight
	sh.count++
	sh.mu.Unlock()
	a.folded.Add(1)
	return nil
}

// Folded implements StreamAggregator.
func (a *ShardedFedAvg) Folded() int { return int(a.folded.Load()) }

// treePartial is one node of Resolve's pairwise reduction: a partial
// sum covering 2^level consecutive shards.
type treePartial struct {
	sum   []float64
	w     float64
	level int
}

// Resolve implements StreamAggregator: a fixed-shape pairwise tree
// reduction over the shard index — shards combine as
// ((s0+s1)+(s2+s3))+… — followed by one normalisation by the total
// weight, the same single division FedAvg.AggregateInto applies. The tree
// shape depends only on P, never on arrival order or on which shards
// happen to be empty, so the resolved bits are stable for a given
// (P, per-shard fold sequences). The shard accumulators are read, not
// mutated: Resolve is repeatable and does not require a Reset first.
func (a *ShardedFedAvg) Resolve(dst []float64) error {
	if len(dst) != a.dim {
		return fmt.Errorf("fl: resolve into %d params, want %d", len(dst), a.dim)
	}
	if a.Folded() == 0 {
		return fmt.Errorf("fl: aggregate with no gradients")
	}
	free := a.scratch
	grab := func() []float64 {
		if n := len(free); n > 0 {
			b := free[n-1]
			free = free[:n-1]
			return b
		}
		return make([]float64, a.dim)
	}
	// Level-stack pairwise reduction: shards enter in index order as
	// level-0 partials; equal-level neighbours merge immediately
	// (earlier shards on the left), so at most ⌈log₂P⌉+1 partials are
	// ever live.
	var stack []treePartial
	for i := range a.shards {
		sh := &a.shards[i]
		buf := grab()
		copy(buf, sh.sum)
		cur := treePartial{sum: buf, w: sh.weight}
		for len(stack) > 0 && stack[len(stack)-1].level == cur.level {
			left := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for j, v := range cur.sum {
				left.sum[j] += v
			}
			left.w += cur.w
			left.level++
			free = append(free, cur.sum)
			cur = left
		}
		stack = append(stack, cur)
	}
	// Complete the tree: the trailing (smaller) partials fold into the
	// earlier (larger) ones, right to left — still a function of P
	// alone.
	res := stack[len(stack)-1]
	for i := len(stack) - 2; i >= 0; i-- {
		left := stack[i]
		for j, v := range res.sum {
			left.sum[j] += v
		}
		left.w += res.w
		free = append(free, res.sum)
		res = left
	}
	a.scratch = append(free, res.sum)
	if res.w == 0 {
		return fmt.Errorf("fl: total aggregation weight is zero")
	}
	inv := 1 / res.w
	for j, v := range res.sum {
		dst[j] = v * inv
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
