package nn

import "fuiov/internal/rng"

// Layer is one differentiable stage of a network.
//
// Forward consumes a batch and produces the layer output, caching
// whatever it needs for the backward pass. Backward consumes the
// gradient of the loss with respect to the layer output and returns
// the gradient with respect to the layer input, accumulating parameter
// gradients into the slice returned by Grads.
//
// Ownership: the batch a layer returns is the layer's own buffer,
// grown to the largest batch it has seen and reused by every later
// call. It is valid until that layer's next Forward (for an output) or
// Backward (for an input gradient); a caller that needs it longer
// clones it. The input x must stay unchanged until the matching
// Backward has run.
//
// Layers are NOT safe for concurrent use; the simulator gives each
// client goroutine its own network clone.
type Layer interface {
	// Forward runs the layer on x and returns the layer-owned output
	// batch.
	Forward(x *Batch) *Batch
	// Backward propagates the output gradient dy and returns the
	// layer-owned input gradient. It must be called after Forward on
	// the same batch.
	Backward(dy *Batch) *Batch
	// Params returns a live view of the layer's parameters (nil when
	// the layer has none).
	Params() []float64
	// Grads returns a live view of the parameter gradients, aligned
	// with Params (nil when the layer has none).
	Grads() []float64
	// OutputDims reports the per-sample output shape given the input
	// shape.
	OutputDims(in Dims) Dims
	// Init (re)initialises the parameters using the given RNG. Layers
	// without parameters do nothing.
	Init(r *rng.RNG)
	// Clone returns an independent copy of the layer (parameters are
	// copied; buffers are not shared).
	Clone() Layer
}

// paramBackwarder is implemented by parameterised layers that can
// accumulate their parameter gradients without forming the input
// gradient. Network uses it on its first layer, whose input gradient
// nobody reads.
type paramBackwarder interface {
	backwardParams(dy *Batch)
}
