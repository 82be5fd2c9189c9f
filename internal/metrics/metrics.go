// Package metrics provides the evaluation measurements used by the
// experiments: test accuracy and model distances.
package metrics

import (
	"fuiov/internal/dataset"
	"fuiov/internal/nn"
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
