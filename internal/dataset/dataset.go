// Package dataset provides deterministic synthetic image-classification
// datasets standing in for MNIST and GTSRB (which cannot be fetched in
// an offline build), plus the IID and non-IID client partitioners used
// by the federated-learning simulator.
//
// The synthetic generators preserve what the unlearning experiments
// actually depend on: a multi-class task with redundant pixel features
// learnable by a small CNN/MLP, per-class structure that poisoning
// attacks (label flips, backdoor triggers) can exploit, and natural
// heterogeneity across federated clients. See DESIGN.md §2.
package dataset

import (
	"fmt"

	"fuiov/internal/nn"
	"fuiov/internal/rng"
)

// Dataset is an in-memory labelled image set. X rows are flattened
// CxHxW images, aligned with labels Y.
type Dataset struct {
	Dims nn.Dims
	X    [][]float64
	Y    []int
	// Classes is the number of label classes (labels are [0, Classes)).
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Subset returns a view-dataset containing the samples at the given
// indices. The underlying feature slices are shared (they are treated
// as immutable); the index containers are fresh.
func (d *Dataset) Subset(indices []int) *Dataset {
	out := &Dataset{Dims: d.Dims, Classes: d.Classes,
		X: make([][]float64, len(indices)), Y: make([]int, len(indices))}
	for i, idx := range indices {
		out.X[i] = d.X[idx]
		out.Y[i] = d.Y[idx]
	}
	return out
}

// Clone returns a deep copy (features copied), for callers that intend
// to mutate samples — e.g. poisoning attacks.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{Dims: d.Dims, Classes: d.Classes,
		X: make([][]float64, len(d.X)), Y: make([]int, len(d.Y))}
	copy(out.Y, d.Y)
	for i, x := range d.X {
		cp := make([]float64, len(x))
		copy(cp, x)
		out.X[i] = cp
	}
	return out
}

// Batch assembles the samples at the given indices into an nn.Batch
// plus the aligned label slice.
func (d *Dataset) Batch(indices []int) (*nn.Batch, []int) {
	b := new(nn.Batch)
	return b, d.BatchInto(b, make([]int, 0, len(indices)), indices)
}

// BatchInto is Batch into caller-owned storage: b is reshaped to hold
// the samples at the given indices and labels is overwritten from its
// start, both reusing their backing arrays when large enough. It
// returns the label slice.
func (d *Dataset) BatchInto(b *nn.Batch, labels []int, indices []int) []int {
	b.Reshape(len(indices), d.Dims)
	labels = labels[:0]
	for i, idx := range indices {
		copy(b.Sample(i), d.X[idx])
		labels = append(labels, d.Y[idx])
	}
	return labels
}

// FullBatch assembles the entire dataset into one batch.
func (d *Dataset) FullBatch() (*nn.Batch, []int) {
	indices := make([]int, d.Len())
	for i := range indices {
		indices[i] = i
	}
	return d.Batch(indices)
}

// SampleBatch draws a uniform mini-batch of up to size samples
// (without replacement within the batch).
func (d *Dataset) SampleBatch(r *rng.RNG, size int) (*nn.Batch, []int) {
	if size > d.Len() {
		size = d.Len()
	}
	return d.Batch(r.SampleWithoutReplacement(d.Len(), size))
}

// Split partitions the dataset into a training set of trainFrac and a
// test set of the remainder, shuffled by r.
func (d *Dataset) Split(r *rng.RNG, trainFrac float64) (train, test *Dataset) {
	perm := r.Perm(d.Len())
	cut := int(trainFrac * float64(d.Len()))
	return d.Subset(perm[:cut]), d.Subset(perm[cut:])
}

// Validate checks internal consistency (lengths, label ranges, feature
// sizes) and returns an error describing the first violation.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("dataset: %d features vs %d labels", len(d.X), len(d.Y))
	}
	sz := d.Dims.Size()
	for i, x := range d.X {
		if len(x) != sz {
			return fmt.Errorf("dataset: sample %d has %d features, want %d", i, len(x), sz)
		}
		if d.Y[i] < 0 || d.Y[i] >= d.Classes {
			return fmt.Errorf("dataset: sample %d label %d out of [0,%d)", i, d.Y[i], d.Classes)
		}
	}
	return nil
}
