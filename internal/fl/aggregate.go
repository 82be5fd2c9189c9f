package fl

import (
	"fmt"
	"slices"

	"fuiov/internal/history"
	"fuiov/internal/par"
	"fuiov/internal/tensor"
)

// FedAvg is the paper's aggregation rule (eq. 1): the weighted average
// of client gradients, weighted by local dataset size.
type FedAvg struct{}

// Aggregate computes Σ wᵢ·gᵢ / Σ wᵢ. Missing weights default to 1.
func (FedAvg) Aggregate(grads map[history.ClientID][]float64, weights map[history.ClientID]float64) ([]float64, error) {
	if len(grads) == 0 {
		return nil, fmt.Errorf("fl: aggregate with no gradients")
	}
	var dim int
	for _, g := range grads {
		dim = len(g)
		break
	}
	// Aggregate in sorted client order: map iteration order is random
	// and float addition is not associative, so an unordered sum would
	// break bit-reproducibility across runs.
	out := make([]float64, dim)
	if err := (FedAvg{}).AggregateInto(out, sortedIDs(grads), grads, weights); err != nil {
		return nil, err
	}
	return out, nil
}

// AggregateInto is the same weighted average as Aggregate, written
// into caller-owned memory with zero allocation. It visits clients in
// the order of ids — the caller supplies them sorted, so the summation
// order (and therefore every result bit) matches Aggregate. ids must
// be exactly the keys of grads; nothing is retained past the call.
func (f FedAvg) AggregateInto(dst []float64, ids []history.ClientID, grads map[history.ClientID][]float64, weights map[history.ClientID]float64) error {
	inv, err := f.InvTotal(len(dst), ids, grads, weights)
	if err != nil {
		return err
	}
	f.AggregateRange(dst, ids, grads, weights, inv, 0, len(dst))
	return nil
}

// InvTotal checks one aggregation the way AggregateInto does — every
// gradient dim elements long, no weight negative, a non-zero total,
// failing on the first offending client in ids order — and returns
// 1/Σw, the scale AggregateRange applies.
func (FedAvg) InvTotal(dim int, ids []history.ClientID, grads map[history.ClientID][]float64, weights map[history.ClientID]float64) (float64, error) {
	if len(ids) == 0 {
		return 0, fmt.Errorf("fl: aggregate with no gradients")
	}
	var totalW float64
	for _, id := range ids {
		if g := grads[id]; len(g) != dim {
			return 0, fmt.Errorf("fl: client %d gradient has %d params, want %d", id, len(g), dim)
		}
		w := weightOf(weights, id)
		if w < 0 {
			return 0, fmt.Errorf("fl: client %d has negative weight %v", id, w)
		}
		totalW += w
	}
	if totalW == 0 {
		return 0, fmt.Errorf("fl: total aggregation weight is zero")
	}
	return 1 / totalW, nil
}

// aggTile is the element span AggregateRange reduces at a time:
// 2 048 floats (16 KB), small enough that the destination tile stays in
// L1 while every client's slice of it streams past.
const aggTile = 2048

// MinRangeWork is the least aggregation work, in gradient elements
// summed, worth one more worker in an element-range split of FedAvg:
// below it the goroutine hand-off costs more than the split saves, so
// small models (a TrafficCNN's 1 212 parameters × a fleet) aggregate
// inline.
const MinRangeWork = 1 << 16

// RangeWorkers is how many element ranges a FedAvg of clients
// gradients of length dim is worth splitting into: one per
// MinRangeWork of it, at least one and at most parallelism.
func RangeWorkers(dim, clients, parallelism int) int {
	return max(1, min(parallelism, dim*clients/MinRangeWork))
}

// RangeAggregator is the parallel FedAvg that the engine's commit and
// the recovery pass both run: InvTotal, then AggregateRange over
// RangeWorkers contiguous element ranges on a bound par.Loop. Each
// element is computed once by the same AggregateRange whatever the
// split, so the result is AggregateInto's, bit for bit, and a
// steady-state call allocates nothing. The zero value is ready to use;
// it must not be copied after its first use, nor used concurrently.
type RangeAggregator struct {
	loop    par.Loop
	dst     []float64
	ids     []history.ClientID
	grads   map[history.ClientID][]float64
	weights map[history.ClientID]float64
	inv     float64
}

// Aggregate is FedAvg.AggregateInto(dst, ids, grads, weights) split
// over RangeWorkers(len(dst), len(ids), parallelism) element ranges;
// it fails as AggregateInto does, before writing dst. ids must be
// sorted and exactly the keys of grads; nothing is retained past the
// call.
func (a *RangeAggregator) Aggregate(dst []float64, ids []history.ClientID, grads map[history.ClientID][]float64, weights map[history.ClientID]float64, parallelism int) error {
	return a.aggregate(dst, ids, grads, weights, RangeWorkers(len(dst), len(ids), parallelism))
}

// aggregate is Aggregate at a given number of ranges.
func (a *RangeAggregator) aggregate(dst []float64, ids []history.ClientID, grads map[history.ClientID][]float64, weights map[history.ClientID]float64, workers int) error {
	inv, err := FedAvg{}.InvTotal(len(dst), ids, grads, weights)
	if err != nil {
		return err
	}
	if a.loop.Body == nil {
		a.loop.Body = a.aggregateRange
	}
	a.dst, a.ids, a.grads, a.weights, a.inv = dst, ids, grads, weights, inv
	a.loop.Run(len(dst), workers)
	a.dst, a.ids, a.grads, a.weights = nil, nil, nil, nil
	return nil
}

func (a *RangeAggregator) aggregateRange(lo, hi int) {
	FedAvg{}.AggregateRange(a.dst, a.ids, a.grads, a.weights, a.inv, lo, hi)
}

// AggregateRange writes elements [lo, hi) of the weighted average into
// dst: each element sums w·g over ids in order, then is scaled by inv
// (from InvTotal over the same inputs). It walks the range in aggTile
// tiles, adding each client's tile with one tensor.AxpyInPlace, so a
// tile of dst stays cache-resident across the cohort; every element
// still sees the same products added in the same client order.
// Elements are independent, so disjoint ranges may run concurrently
// and together are AggregateInto, bit for bit.
func (FedAvg) AggregateRange(dst []float64, ids []history.ClientID, grads map[history.ClientID][]float64, weights map[history.ClientID]float64, inv float64, lo, hi int) {
	for t := lo; t < hi; t += aggTile {
		e := min(t+aggTile, hi)
		d := dst[t:e]
		clear(d)
		for _, id := range ids {
			tensor.AxpyInPlace(d, weightOf(weights, id), grads[id][t:e])
		}
		for i := range d {
			d[i] *= inv
		}
	}
}

// weightOf is id's aggregation weight; a missing one defaults to 1.
func weightOf(weights map[history.ClientID]float64, id history.ClientID) float64 {
	if w, ok := weights[id]; ok {
		return w
	}
	return 1
}

// sortedIDs returns the client IDs of a gradient map in ascending
// order, the deterministic order every sum over clients runs in.
func sortedIDs(grads map[history.ClientID][]float64) []history.ClientID {
	ids := make([]history.ClientID, 0, len(grads))
	for id := range grads {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
