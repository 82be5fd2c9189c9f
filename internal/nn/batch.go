// Package nn is a from-scratch neural-network substrate supporting the
// federated-learning simulator: dense and convolutional layers with
// exact backpropagation, softmax cross-entropy loss, and flat
// parameter/gradient vectors as the exchange format between clients
// and the server.
//
// Layer compute is built on the GEMM kernels in internal/tensor:
// convolutions as GEMMs over windows of zero-padded samples, dense
// layers as one batched GEMM per call, with layer-owned scratch
// reused across calls. Every kernel keeps a fixed per-element
// accumulation order, so training is bit-deterministic at any
// parallelism level — the property the seeded federated experiments
// rely on. The original direct loops survive as _test.go oracles
// checked against the kernels by property tests.
//
// Activations live in a bounded workspace: every layer owns its output
// and input-gradient buffers, and Network walks a batch in sample-order
// micro-batches (see microBatch), so a training step allocates nothing
// and its scratch does not grow with the batch.
package nn

import "fmt"

// Dims describes the logical shape of one sample: channels, height and
// width. Dense data uses C=features, H=W=1.
type Dims struct {
	C, H, W int
}

// Size returns the number of elements per sample.
func (d Dims) Size() int { return d.C * d.H * d.W }

// String renders the dims as CxHxW.
func (d Dims) String() string { return fmt.Sprintf("%dx%dx%d", d.C, d.H, d.W) }

// Flat returns the dims collapsed to a feature vector.
func (d Dims) Flat() Dims { return Dims{C: d.Size(), H: 1, W: 1} }

// Batch is a mini-batch of N samples, each with shape Dims, stored
// contiguously sample-major.
type Batch struct {
	N    int
	Dims Dims
	Data []float64
}

// NewBatch allocates a zeroed batch.
func NewBatch(n int, dims Dims) *Batch {
	return &Batch{N: n, Dims: dims, Data: make([]float64, n*dims.Size())}
}

// Reshape points b at n samples of shape dims, reusing its backing
// array when it is large enough, and returns b. Contents are
// unspecified; callers overwrite or clear every element.
func (b *Batch) Reshape(n int, dims Dims) *Batch {
	b.N, b.Dims = n, dims
	b.Data = growFloats(b.Data, n*dims.Size())
	return b
}

// Sample returns the slice backing sample i (a live view, not a copy).
func (b *Batch) Sample(i int) []float64 {
	sz := b.Dims.Size()
	return b.Data[i*sz : (i+1)*sz]
}

// Clone returns a deep copy of the batch.
func (b *Batch) Clone() *Batch {
	out := NewBatch(b.N, b.Dims)
	copy(out.Data, b.Data)
	return out
}
