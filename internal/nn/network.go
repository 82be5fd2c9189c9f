package nn

import (
	"fmt"

	"fuiov/internal/rng"
)

// microBatch is the most samples the layers see at once. Network
// walks every batch in consecutive chunks of at most this many samples,
// so the layer-owned buffers (the conv layers' padded copies among
// them) are sized by it and not by the batch. Chosen by measurement
// among 8/16/32; see DESIGN.md §10.
const microBatch = 16

// Network is a sequential stack of layers ending in logits, trained
// with softmax cross-entropy. It exposes its parameters and gradients
// as flat vectors — the exchange format of the FL simulator.
//
// Like its layers, a Network is not safe for concurrent use.
type Network struct {
	InDims Dims
	layers []Layer

	in      Batch // view of the current micro-batch of the caller's input
	dLogits Batch // loss gradient of the current micro-batch
	logits  Batch // whole-batch logits handed out by Forward
}

// NewNetwork builds a sequential network over the given input shape.
// It validates layer compatibility eagerly so shape errors surface at
// construction rather than mid-training.
func NewNetwork(in Dims, layers ...Layer) (*Network, error) {
	if in.Size() <= 0 {
		return nil, fmt.Errorf("nn: invalid input dims %s", in)
	}
	dims := in
	for i, l := range layers {
		out := l.OutputDims(dims)
		if out.Size() <= 0 {
			return nil, fmt.Errorf("nn: layer %d (%T) produces empty output from %s", i, l, dims)
		}
		if d, ok := l.(*Dense); ok && dims.Size() != d.In {
			return nil, fmt.Errorf("nn: layer %d (Dense) expects %d inputs, got %s", i, d.In, dims)
		}
		var c *Conv2D
		switch l := l.(type) {
		case *Conv2D:
			c = l
		case *ConvReLUPool:
			c = &l.Conv2D
		}
		if c != nil && dims.C != c.InC {
			return nil, fmt.Errorf("nn: layer %d (%T) expects %d channels, got %s", i, l, c.InC, dims)
		}
		dims = out
	}
	return &Network{InDims: in, layers: layers}, nil
}

// MustNetwork is NewNetwork that panics on error, for use in tests and
// model factory functions whose shapes are fixed at compile time.
func MustNetwork(in Dims, layers ...Layer) *Network {
	n, err := NewNetwork(in, layers...)
	if err != nil {
		panic(err)
	}
	return n
}

// OutDims reports the logits shape.
func (n *Network) OutDims() Dims {
	d := n.InDims
	for _, l := range n.layers {
		d = l.OutputDims(d)
	}
	return d
}

// NumParams returns the total parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.layers {
		total += len(l.Params())
	}
	return total
}

// Init (re)initialises all layer parameters deterministically from r:
// each layer from the stream split off at its position. A ConvReLUPool
// takes three positions, those of the conv, ReLU and pool layers it
// fuses, so a network draws the parameters it drew as those three.
func (n *Network) Init(r *rng.RNG) {
	i := 0
	for _, l := range n.layers {
		l.Init(r.Split(uint64(i)))
		i++
		if _, ok := l.(*ConvReLUPool); ok {
			i += 2
		}
	}
}

// eachChunk walks x in sample order, microBatch samples at a time: it
// runs each chunk through the stack and hands fn the chunk's first
// sample index and its (layer-owned) logits. The input view is dropped
// afterwards so an idle network does not pin the caller's batch.
func (n *Network) eachChunk(x *Batch, fn func(lo int, logits *Batch)) {
	sz := x.Dims.Size()
	for lo := 0; lo < x.N; lo += microBatch {
		hi := min(lo+microBatch, x.N)
		n.in = Batch{N: hi - lo, Dims: x.Dims, Data: x.Data[lo*sz : hi*sz]}
		fn(lo, n.forward(&n.in))
	}
	n.in.Data = nil
}

// forward runs one micro-batch through the stack and returns the last
// layer's (layer-owned) logits.
func (n *Network) forward(x *Batch) *Batch {
	for _, l := range n.layers {
		x = l.Forward(x)
	}
	return x
}

// backward propagates one micro-batch's dLogits through the stack,
// accumulating parameter gradients. The first layer's input gradient
// has no reader, so a layer that can skip it does.
func (n *Network) backward(dy *Batch) {
	for i := len(n.layers) - 1; i > 0; i-- {
		dy = n.layers[i].Backward(dy)
	}
	if pb, ok := n.layers[0].(paramBackwarder); ok {
		pb.backwardParams(dy)
	} else {
		n.layers[0].Backward(dy)
	}
}

// mustLabel panics unless there is one label per sample.
func mustLabel(x *Batch, labels []int) {
	if x.N != len(labels) {
		panic(fmt.Sprintf("nn: %d samples vs %d labels", x.N, len(labels)))
	}
}

// Forward runs the network and returns the logits of the whole batch
// in a network-owned buffer, valid until the next Forward.
func (n *Network) Forward(x *Batch) *Batch {
	out := n.logits.Reshape(x.N, n.OutDims())
	classes := out.Dims.Size()
	n.eachChunk(x, func(lo int, logits *Batch) {
		copy(out.Data[lo*classes:], logits.Data)
	})
	return out
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, l := range n.layers {
		clear(l.Grads())
	}
}

// LossAndGrad computes the mean cross-entropy loss of the batch and
// leaves the gradient of the mean loss in the layers' grad buffers
// (previous gradients are cleared first). It returns the loss and the
// number of correctly classified samples.
//
// The batch is walked in micro-batches — forward, loss gradient and
// backward per chunk. Gradients are cleared once, every parameter
// gradient accumulates onto the running value in increasing sample
// order, and the loss gradient carries 1/N of the whole batch, so the
// result is bit-identical to a single whole-batch pass.
func (n *Network) LossAndGrad(x *Batch, labels []int) (loss float64, correct int) {
	mustLabel(x, labels)
	n.ZeroGrads()
	invN := 1 / float64(x.N)
	n.eachChunk(x, func(lo int, logits *Batch) {
		dLogits := n.dLogits.Reshape(logits.N, logits.Dims)
		var c int
		loss, c = crossEntropy(loss, logits, labels[lo:lo+logits.N], invN, dLogits)
		correct += c
		n.backward(dLogits)
	})
	return loss, correct
}

// ParamVector returns a copy of all parameters concatenated in layer
// order.
func (n *Network) ParamVector() []float64 {
	return n.ParamVectorInto(make([]float64, n.NumParams()))
}

// ParamVectorInto copies all parameters into dst, which must have
// length NumParams, and returns it.
func (n *Network) ParamVectorInto(dst []float64) []float64 {
	n.mustDim("ParamVectorInto", len(dst))
	off := 0
	for _, l := range n.layers {
		off += copy(dst[off:], l.Params())
	}
	return dst
}

// mustDim panics unless got is the network's parameter count.
func (n *Network) mustDim(op string, got int) {
	if got != n.NumParams() {
		panic(fmt.Sprintf("nn: %s got %d values, want %d", op, got, n.NumParams()))
	}
}

// SetParamVector overwrites all parameters from the flat vector v,
// which must have length NumParams.
func (n *Network) SetParamVector(v []float64) {
	n.mustDim("SetParamVector", len(v))
	off := 0
	for _, l := range n.layers {
		p := l.Params()
		copy(p, v[off:off+len(p)])
		off += len(p)
	}
}

// Biased is implemented by layers whose Params view ends with a bias
// vector, so flat-vector consumers can address the weight matrix
// alone (WeightSpans).
type Biased interface {
	// BiasLen is the number of trailing bias entries in Params.
	BiasLen() int
}

// WeightSpans returns the [start, end) offsets of each parameterised
// layer's weight matrix within the flat ParamVector layout, in layer
// order: for layers implementing Biased the trailing bias entries are
// excluded from the span, so e.g. sign-negating a span flips a layer's
// weights while leaving its biases intact.
func (n *Network) WeightSpans() [][2]int {
	spans := make([][2]int, 0, len(n.layers))
	off := 0
	for _, l := range n.layers {
		np := len(l.Params())
		if np == 0 {
			continue
		}
		end := off + np
		if b, ok := l.(Biased); ok {
			end -= b.BiasLen()
		}
		spans = append(spans, [2]int{off, end})
		off += np
	}
	return spans
}

// GradVectorInto copies all parameter gradients into dst, which must
// have length NumParams, and returns it.
func (n *Network) GradVectorInto(dst []float64) []float64 {
	n.mustDim("GradVectorInto", len(dst))
	off := 0
	for _, l := range n.layers {
		off += copy(dst[off:], l.Grads())
	}
	return dst
}

// SGDStep applies w <- w - lr * grad using the accumulated gradients.
func (n *Network) SGDStep(lr float64) {
	for _, l := range n.layers {
		p, g := l.Params(), l.Grads()
		for i := range p {
			p[i] -= lr * g[i]
		}
	}
}

// Clone returns an independent deep copy of the network (parameters
// copied, activations not shared). Clones are how the simulator gives
// each client goroutine a private model.
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		layers[i] = l.Clone()
	}
	return &Network{InDims: n.InDims, layers: layers}
}

// Evaluate runs the network on the batch without touching gradients
// and returns (mean loss, number correct).
func (n *Network) Evaluate(x *Batch, labels []int) (loss float64, correct int) {
	mustLabel(x, labels)
	invN := 1 / float64(x.N)
	n.eachChunk(x, func(lo int, logits *Batch) {
		var c int
		loss, c = crossEntropy(loss, logits, labels[lo:lo+logits.N], invN, nil)
		correct += c
	})
	return loss, correct
}

// Predict returns the argmax class for each sample in the batch.
func (n *Network) Predict(x *Batch) []int {
	out := make([]int, x.N)
	n.eachChunk(x, func(lo int, logits *Batch) {
		for i := 0; i < logits.N; i++ {
			out[lo+i] = argmax(logits.Sample(i))
		}
	})
	return out
}
