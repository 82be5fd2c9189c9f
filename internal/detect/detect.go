// Package detect implements malicious-client detection for federated
// learning — the trigger for the paper's poisoning-recovery scenario
// ("the safest approach is to erase all updates contributed by the
// attacker ... once the attacker is detected", §I). Two detectors are
// provided:
//
//   - CosineDetector scores each client by the cosine similarity of
//     its upload to the aggregate of everyone else's, accumulated over
//     rounds. Strong model-poisoning attacks (sign flips, scaled
//     noise) point away from the consensus direction and score low.
//   - ConsistencyDetector follows FLDetector (Zhang et al., KDD'22,
//     the paper's reference [21]): each client's upload is predicted
//     from its previous upload via an L-BFGS Hessian-vector product,
//     ĝᵗ = gᵗ⁻¹ + H̃·(wᵗ − wᵗ⁻¹), and clients whose actual uploads
//     consistently deviate from the prediction are flagged.
//
// Both implement fl.Recorder, so they can observe training passively:
//
//	det := detect.NewCosineDetector()
//	fl.Config{Recorders: []fl.Recorder{store, det}}
//	...
//	suspects := det.Suspects()
//	unlearner.UnlearnContext(ctx, suspects...)
package detect

import (
	"sort"

	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/tensor"
)

// Score is a client's accumulated suspicion statistics.
type Score struct {
	Client history.ClientID
	// Value is the mean per-round score; lower is more suspicious for
	// CosineDetector, higher for ConsistencyDetector.
	Value float64
	// Rounds is the number of observations.
	Rounds int
}

// twoMeans splits values into two clusters by 1-D 2-means and returns
// the threshold between cluster centres along with the gap between
// them (c2 − c1). It is the decision rule FLDetector uses after
// scoring; callers compare the gap against an absolute threshold in
// score units to avoid false positives on tightly packed clean runs.
func twoMeans(values []float64) (threshold, gap float64) {
	if len(values) < 2 {
		return 0, 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	lo, hi := sorted[0], sorted[len(sorted)-1]
	if lo == hi {
		return lo, 0
	}
	c1, c2 := lo, hi
	for iter := 0; iter < 50; iter++ {
		var s1, s2, n1, n2 float64
		for _, v := range sorted {
			if v-c1 <= c2-v { // closer to c1
				s1 += v
				n1++
			} else {
				s2 += v
				n2++
			}
		}
		if n1 == 0 || n2 == 0 {
			break
		}
		nc1, nc2 := s1/n1, s2/n2
		if nc1 == c1 && nc2 == c2 {
			break
		}
		c1, c2 = nc1, nc2
	}
	threshold = (c1 + c2) / 2
	return threshold, c2 - c1
}

// CosineDetector flags clients whose uploads persistently oppose the
// consensus update direction.
type CosineDetector struct {
	sums   map[history.ClientID]float64
	counts map[history.ClientID]int
	// MinGap is the minimum 2-means cluster gap (in cosine units)
	// required before anyone is flagged; prevents false positives on
	// clean runs. Default 0.5.
	MinGap float64
}

var _ fl.Recorder = (*CosineDetector)(nil)

// NewCosineDetector returns a detector with default thresholds.
func NewCosineDetector() *CosineDetector {
	return &CosineDetector{
		sums:   make(map[history.ClientID]float64),
		counts: make(map[history.ClientID]int),
		MinGap: 0.5,
	}
}

// RecordRound implements fl.Recorder: scores every participant by
// cosine similarity to the coordinate-wise median of all uploads. The
// median reference stays honest even when a coalition of attackers
// dominates the sum, which would poison a leave-one-out average.
func (d *CosineDetector) RecordRound(_ int, _ []float64, grads map[history.ClientID][]float64, _ map[history.ClientID]float64) error {
	if len(grads) < 3 {
		return nil // a median of fewer than 3 uploads is meaningless
	}
	reference, err := fl.Median{}.Aggregate(grads, nil)
	if err != nil {
		return err
	}
	nr := tensor.Norm2(reference)
	for id, g := range grads {
		na := tensor.Norm2(g)
		var cos float64
		if na > 0 && nr > 0 {
			cos = tensor.Dot(g, reference) / (na * nr)
		}
		d.sums[id] += cos
		d.counts[id]++
	}
	return nil
}

// Scores returns the per-client mean cosine scores, sorted by client.
func (d *CosineDetector) Scores() []Score {
	out := make([]Score, 0, len(d.sums))
	for id, sum := range d.sums {
		out = append(out, Score{Client: id, Value: sum / float64(d.counts[id]), Rounds: d.counts[id]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out
}

// Suspects clusters the scores and returns the low cluster when it is
// well separated — the clients whose uploads oppose the consensus.
func (d *CosineDetector) Suspects() []history.ClientID {
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
		if s.Value < threshold {
			out = append(out, s.Client)
		}
	}
	return out
}
