// Package metrics provides the evaluation measurements used by the
// experiments: test accuracy and model distances.
package metrics

import (
	"fmt"

	"fuiov/internal/dataset"
	"fuiov/internal/nn"
	"fuiov/internal/tensor"
)

// Accuracy evaluates a network on an entire dataset and returns the
// fraction of correctly classified samples.
func Accuracy(net *nn.Network, d *dataset.Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	x, labels := d.FullBatch()
	_, correct := net.Evaluate(x, labels)
	return float64(correct) / float64(d.Len())
}

// AccuracyAt evaluates the network with the given flat parameters,
// restoring nothing (the caller owns the network's parameter state).
func AccuracyAt(net *nn.Network, params []float64, d *dataset.Dataset) float64 {
	net.SetParamVector(params)
	return Accuracy(net, d)
}

// Loss evaluates mean cross-entropy on the dataset.
func Loss(net *nn.Network, d *dataset.Dataset) float64 {
	x, labels := d.FullBatch()
	loss, _ := net.Evaluate(x, labels)
	return loss
}

// ModelDistance returns the L2 distance between two flat parameter
// vectors — the standard closeness measure between an unlearned model
// and its retrained reference.
func ModelDistance(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("metrics: dimension mismatch %d vs %d", len(a), len(b))
	}
	return tensor.Norm2(tensor.Sub(a, b)), nil
}

// CosineSimilarity returns the cosine of the angle between two
// parameter (or gradient) vectors, or 0 when either is zero.
func CosineSimilarity(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("metrics: dimension mismatch %d vs %d", len(a), len(b))
	}
	na, nb := tensor.Norm2(a), tensor.Norm2(b)
	if na == 0 || nb == 0 {
		return 0, nil
	}
	return tensor.Dot(a, b) / (na * nb), nil
}
