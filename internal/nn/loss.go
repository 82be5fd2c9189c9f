package nn

import (
	"fmt"
	"math"
)

// crossEntropy folds one micro-batch of logits into a running mean
// softmax cross-entropy: it returns loss plus each sample's loss·invN,
// added in sample order, and the number of samples whose argmax is
// their label. invN is 1/N of the WHOLE batch, so walking a batch
// chunk by chunk sums exactly the terms a single pass would, in the
// same order.
//
// When dLogits is non-nil it receives the gradient of the mean loss
// with respect to the logits (every element written), 1/N included, so
// a backward pass produces the gradient of the *mean* loss — the
// quantity clients exchange with the server. Evaluation passes nil and
// pays for no gradient.
func crossEntropy(loss float64, logits *Batch, labels []int, invN float64, dLogits *Batch) (float64, int) {
	classes := logits.Dims.Size()
	correct := 0
	for n := 0; n < logits.N; n++ {
		z := logits.Sample(n)
		label := labels[n]
		if label < 0 || label >= classes {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", label, classes))
		}
		best := argmax(z)
		if best == label {
			correct++
		}
		// Numerically stable log-sum-exp.
		maxZ := z[best]
		var sum float64
		for _, v := range z {
			sum += math.Exp(v - maxZ)
		}
		logSum := math.Log(sum) + maxZ
		loss += (logSum - z[label]) * invN
		if dLogits == nil {
			continue
		}
		g := dLogits.Sample(n)
		for c := range g {
			p := math.Exp(z[c] - logSum)
			if c == label {
				p -= 1
			}
			g[c] = p * invN
		}
	}
	return loss, correct
}

// argmax returns the index of the first largest element of z.
func argmax(z []float64) int {
	best := 0
	for c := 1; c < len(z); c++ {
		if z[c] > z[best] {
			best = c
		}
	}
	return best
}
