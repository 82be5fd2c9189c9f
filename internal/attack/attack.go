// Package attack implements the poisoning attacks evaluated in the
// paper (§V-A2): the label-flip attack (Rosenfeld et al.) and the
// backdoor attack (Li et al.), plus the attack-success-rate metric.
package attack

import (
	"fmt"

	"fuiov/internal/dataset"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
)

// Poisoner transforms a client's local dataset into its poisoned
// counterpart. Implementations must not mutate the input.
type Poisoner interface {
	// Poison returns the poisoned copy of d.
	Poison(d *dataset.Dataset, r *rng.RNG) *dataset.Dataset
	// Name identifies the attack in logs and experiment output.
	Name() string
}

// LabelFlip relabels samples of SourceClass to TargetClass. With
// Fraction = 1 every source-class sample is flipped, matching the
// paper's "altered the labels for images that originally represented
// the number 7 to a target label 1".
type LabelFlip struct {
	SourceClass int
	TargetClass int
	// Fraction of source-class samples to flip, in (0, 1].
	Fraction float64
}

var _ Poisoner = (*LabelFlip)(nil)

// Name implements Poisoner.
func (a *LabelFlip) Name() string {
	return fmt.Sprintf("labelflip(%d->%d)", a.SourceClass, a.TargetClass)
}

// Poison returns a copy of d with source-class labels flipped.
func (a *LabelFlip) Poison(d *dataset.Dataset, r *rng.RNG) *dataset.Dataset {
	out := d.Clone()
	frac := a.Fraction
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	for i, y := range out.Y {
		if y != a.SourceClass {
			continue
		}
		if frac >= 1 || r.Bernoulli(frac) {
			out.Y[i] = a.TargetClass
		}
	}
	return out
}

// Backdoor stamps a trigger patch onto a fraction of samples and
// relabels them to TargetClass. The paper uses a 3×3 black square and
// target class 2; "black" for our normalised images means pixel value
// TriggerValue (default 1, a saturated patch, which is the standard
// BadNets-style trigger).
type Backdoor struct {
	TargetClass int
	// PatchSize is the square trigger side length (paper: 3).
	PatchSize int
	// TriggerValue is the pixel value written into the patch.
	TriggerValue float64
	// Fraction of samples to poison, in (0, 1].
	Fraction float64
}

var _ Poisoner = (*Backdoor)(nil)

// DefaultBackdoor returns the paper's configuration: 3×3 trigger,
// target class 2, half of the malicious client's samples poisoned.
func DefaultBackdoor() *Backdoor {
	return &Backdoor{TargetClass: 2, PatchSize: 3, TriggerValue: 1, Fraction: 0.5}
}

// Name implements Poisoner.
func (a *Backdoor) Name() string {
	return fmt.Sprintf("backdoor(%dx%d->%d)", a.PatchSize, a.PatchSize, a.TargetClass)
}

// Poison returns a copy of d with triggers stamped on a random subset.
func (a *Backdoor) Poison(d *dataset.Dataset, r *rng.RNG) *dataset.Dataset {
	out := d.Clone()
	frac := a.Fraction
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	for i := range out.X {
		if frac < 1 && !r.Bernoulli(frac) {
			continue
		}
		a.Stamp(out.X[i], out.Dims)
		out.Y[i] = a.TargetClass
	}
	return out
}

// Stamp writes the trigger into the bottom-right corner of a flat
// image in place.
func (a *Backdoor) Stamp(x []float64, dims nn.Dims) {
	size := a.PatchSize
	if size <= 0 {
		size = 3
	}
	h, w := dims.H, dims.W
	for c := 0; c < dims.C; c++ {
		for dy := 0; dy < size && dy < h; dy++ {
			for dx := 0; dx < size && dx < w; dx++ {
				y := h - 1 - dy
				xx := w - 1 - dx
				x[c*h*w+y*w+xx] = a.TriggerValue
			}
		}
	}
}

// SuccessRate measures the attack success rate of a model against this
// backdoor: the fraction of non-target-class test samples that the
// model classifies as the target class once the trigger is stamped.
// One single-sample batch is reused across the whole test set; each
// sample is still classified individually, so the result is
// bit-identical to the per-sample reference loop (successRateNaive).
func (a *Backdoor) SuccessRate(net *nn.Network, test *dataset.Dataset) float64 {
	var triggered, hits int
	b := nn.NewBatch(1, test.Dims)
	for i := range test.X {
		if test.Y[i] == a.TargetClass {
			continue // already the target; not evidence of a backdoor
		}
		copy(b.Sample(0), test.X[i])
		a.Stamp(b.Sample(0), test.Dims)
		if net.Predict(b)[0] == a.TargetClass {
			hits++
		}
		triggered++
	}
	if triggered == 0 {
		return 0
	}
	return float64(hits) / float64(triggered)
}

// FlipSuccessRate measures the label-flip attack success rate: the
// fraction of source-class test samples classified as the target. Like
// SuccessRate it reuses one single-sample batch across the test set.
func FlipSuccessRate(net *nn.Network, test *dataset.Dataset, source, target int) float64 {
	var total, hits int
	b := nn.NewBatch(1, test.Dims)
	for i := range test.X {
		if test.Y[i] != source {
			continue
		}
		copy(b.Sample(0), test.X[i])
		if net.Predict(b)[0] == target {
			hits++
		}
		total++
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
