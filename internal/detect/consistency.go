package detect

import (
	"slices"
	"sort"

	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/lbfgs"
	"fuiov/internal/tensor"
)

// ConsistencyDetector implements the FLDetector strategy (Zhang et
// al., KDD'22 — the paper's reference [21]): honest clients' gradients
// evolve smoothly with the global model, so each upload can be
// predicted from the previous one with a Hessian correction,
//
//	ĝᵗᵢ = gᵗ⁻¹ᵢ + H̃·(wᵗ − wᵗ⁻¹),
//
// where H̃ is the same compact L-BFGS approximation the unlearning
// scheme uses. Poisoners — whose uploads are crafted rather than
// computed — accumulate larger prediction errors.
type ConsistencyDetector struct {
	// PairSize is the L-BFGS memory (default 3).
	PairSize int
	// MinGap is the 2-means cluster gap (in round-share units, where
	// an honest client scores ~1) required to flag anyone (default 1).
	MinGap float64

	prevModel []float64
	prevGrads map[history.ClientID][]float64
	pairs     *lbfgs.PairBuffer

	errSums map[history.ClientID]float64
	counts  map[history.ClientID]int
}

var _ fl.Recorder = (*ConsistencyDetector)(nil)

// NewConsistencyDetector returns a detector with default settings.
func NewConsistencyDetector() *ConsistencyDetector {
	return &ConsistencyDetector{
		PairSize: 3,
		MinGap:   1,
		errSums:  make(map[history.ClientID]float64),
		counts:   make(map[history.ClientID]int),
	}
}

// RecordRound implements fl.Recorder.
func (d *ConsistencyDetector) RecordRound(_ int, model []float64, grads map[history.ClientID][]float64, _ map[history.ClientID]float64) error {
	defer func() {
		d.prevModel = tensor.CloneVec(model)
		d.prevGrads = make(map[history.ClientID][]float64, len(grads))
		for id, g := range grads {
			d.prevGrads[id] = tensor.CloneVec(g)
		}
	}()
	if d.prevModel == nil {
		var err error
		d.pairs, err = lbfgs.NewPairBuffer(d.PairSize)
		return err
	}
	deltaW := tensor.Sub(model, d.prevModel)
	// Maintain global vector pairs from the aggregate gradient: the
	// model difference vs the mean-gradient difference approximates
	// the loss Hessian along the trajectory.
	meanPrev := meanGradient(d.prevGrads)
	meanCur := meanGradient(grads)
	var approx *lbfgs.Approx
	if meanPrev != nil && meanCur != nil {
		if err := d.pairs.Push(deltaW, tensor.Sub(meanCur, meanPrev)); err == nil {
			if a, err := d.pairs.Build(); err == nil {
				approx = a
			}
		}
	}
	var correction []float64
	if approx != nil {
		if hv, err := approx.HVP(deltaW); err == nil {
			correction = hv
		}
	}
	// Raw prediction errors first; each client is then scored by its
	// share of the round's mean error, so honest clients sit near 1
	// regardless of gradient scale and attackers stand out (FLDetector
	// normalizes scores per round the same way).
	// Clients in ascending ID order: the sum of their errors must not
	// depend on map iteration order, or neither would the scores.
	raw := make(map[history.ClientID]float64, len(grads))
	var total float64
	for _, id := range sortedIDs(grads) {
		g := grads[id]
		prev, ok := d.prevGrads[id]
		if !ok {
			continue // newly joined; no prediction possible
		}
		pred := tensor.CloneVec(prev)
		if correction != nil {
			tensor.AddInPlace(pred, correction)
		}
		e := tensor.Norm2(tensor.Sub(g, pred))
		raw[id] = e
		total += e
	}
	if len(raw) == 0 || total == 0 {
		return nil
	}
	mean := total / float64(len(raw))
	for id, e := range raw {
		d.errSums[id] += e / mean
		d.counts[id]++
	}
	return nil
}

// sortedIDs returns the clients of grads in ascending ID order.
func sortedIDs(grads map[history.ClientID][]float64) []history.ClientID {
	ids := make([]history.ClientID, 0, len(grads))
	for id := range grads {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func meanGradient(grads map[history.ClientID][]float64) []float64 {
	if len(grads) == 0 {
		return nil
	}
	ids := sortedIDs(grads)
	out := make([]float64, len(grads[ids[0]]))
	for _, id := range ids {
		tensor.AddInPlace(out, grads[id])
	}
	tensor.ScaleInPlace(1/float64(len(ids)), out)
	return out
}

// Scores returns the per-client mean normalized prediction errors,
// sorted by client ID. Higher is more suspicious.
func (d *ConsistencyDetector) Scores() []Score {
	out := make([]Score, 0, len(d.errSums))
	for id, sum := range d.errSums {
		out = append(out, Score{Client: id, Value: sum / float64(d.counts[id]), Rounds: d.counts[id]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out
}

// Suspects returns the high-error cluster when it is well separated.
func (d *ConsistencyDetector) Suspects() []history.ClientID {
	scores := d.Scores()
	if len(scores) < 3 {
		return nil
	}
	values := make([]float64, len(scores))
	for i, s := range scores {
		values[i] = s.Value
	}
	threshold, gap := twoMeans(values)
	if gap < d.MinGap {
		return nil
	}
	var out []history.ClientID
	for _, s := range scores {
		if s.Value > threshold {
			out = append(out, s.Client)
		}
	}
	return out
}
