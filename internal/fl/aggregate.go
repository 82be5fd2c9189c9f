package fl

import (
	"fmt"
	"slices"

	"fuiov/internal/history"
)

// Aggregator combines per-client gradients into one global update.
// FedAvg is the only rule: the round engine calls it directly, and
// unlearn.Config.Aggregator is the seam a test substitutes to observe
// what recovery aggregates.
type Aggregator interface {
	// Aggregate combines the gradients; weights align with grads by
	// client ID. It must not mutate the inputs, and must not retain
	// them past the call: hot paths (the recovery loop) reuse the map
	// and the gradient buffers on the next round.
	Aggregate(grads map[history.ClientID][]float64, weights map[history.ClientID]float64) ([]float64, error)
}

// FedAvg is the paper's aggregation rule (eq. 1): the weighted average
// of client gradients, weighted by local dataset size.
type FedAvg struct{}

var _ Aggregator = FedAvg{}

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

// AggregateRange writes elements [lo, hi) of the weighted average into
// dst: each element sums w·g over ids in order, then is scaled by inv
// (from InvTotal over the same inputs). Elements are independent, so
// disjoint ranges may run concurrently and together are
// AggregateInto, bit for bit.
func (FedAvg) AggregateRange(dst []float64, ids []history.ClientID, grads map[history.ClientID][]float64, weights map[history.ClientID]float64, inv float64, lo, hi int) {
	d := dst[lo:hi]
	clear(d)
	for _, id := range ids {
		w := weightOf(weights, id)
		for i, v := range grads[id][lo:hi] {
			d[i] += w * v
		}
	}
	for i := range d {
		d[i] *= inv
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
