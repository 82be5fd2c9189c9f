package nn

import (
	"fmt"

	"fuiov/internal/rng"
)

// MaxPool2D downsamples each channel by taking the maximum over
// non-overlapping Size×Size windows. Inputs whose height/width are not
// divisible by Size are cropped at the bottom/right edge, matching the
// common "floor" pooling convention.
type MaxPool2D struct {
	Size int

	lastIn  *Batch
	argmax  []int // flat index (within sample) of each output's source
	outDims Dims
	out, dx Batch
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D constructs a pooling layer with the given window size.
func NewMaxPool2D(size int) *MaxPool2D {
	if size <= 0 {
		panic(fmt.Sprintf("nn.NewMaxPool2D: invalid size %d", size))
	}
	return &MaxPool2D{Size: size}
}

// OutputDims reports the pooled shape.
func (p *MaxPool2D) OutputDims(in Dims) Dims {
	return Dims{C: in.C, H: in.H / p.Size, W: in.W / p.Size}
}

// Forward computes the max over each pooling window, recording argmax
// positions for the backward pass.
func (p *MaxPool2D) Forward(x *Batch) *Batch {
	outDims := p.OutputDims(x.Dims)
	if outDims.H <= 0 || outDims.W <= 0 {
		panic(fmt.Sprintf("nn.MaxPool2D: window %d too large for input %s", p.Size, x.Dims))
	}
	p.lastIn = x
	p.outDims = outDims
	out := p.out.Reshape(x.N, outDims)
	if cap(p.argmax) < x.N*outDims.Size() {
		p.argmax = make([]int, x.N*outDims.Size())
	}
	p.argmax = p.argmax[:x.N*outDims.Size()]
	ih, iw := x.Dims.H, x.Dims.W
	oh, ow := outDims.H, outDims.W
	for n := 0; n < x.N; n++ {
		in := x.Sample(n)
		y := out.Sample(n)
		am := p.argmax[n*outDims.Size() : (n+1)*outDims.Size()]
		for c := 0; c < x.Dims.C; c++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bestIdx := c*ih*iw + (oy*p.Size)*iw + ox*p.Size
					best := in[bestIdx]
					for ky := 0; ky < p.Size; ky++ {
						for kx := 0; kx < p.Size; kx++ {
							idx := c*ih*iw + (oy*p.Size+ky)*iw + (ox*p.Size + kx)
							if in[idx] > best {
								best, bestIdx = in[idx], idx
							}
						}
					}
					o := (c*oh+oy)*ow + ox
					y[o] = best
					am[o] = bestIdx
				}
			}
		}
	}
	return out
}

// Backward routes each output gradient to its argmax input position.
// dx is scatter-added into, so it is cleared first.
func (p *MaxPool2D) Backward(dy *Batch) *Batch {
	x := p.lastIn
	if x == nil {
		panic("nn.MaxPool2D: Backward before Forward")
	}
	dx := p.dx.Reshape(x.N, x.Dims)
	clear(dx.Data)
	osz := p.outDims.Size()
	for n := 0; n < x.N; n++ {
		g := dy.Sample(n)
		din := dx.Sample(n)
		am := p.argmax[n*osz : (n+1)*osz]
		for o, idx := range am {
			din[idx] += g[o]
		}
	}
	return dx
}

// Params returns nil; pooling has no parameters.
func (p *MaxPool2D) Params() []float64 { return nil }

// Grads returns nil; pooling has no parameters.
func (p *MaxPool2D) Grads() []float64 { return nil }

// Init does nothing; pooling has no parameters.
func (p *MaxPool2D) Init(*rng.RNG) {}

// Clone returns a fresh pooling layer with the same window size.
func (p *MaxPool2D) Clone() Layer { return NewMaxPool2D(p.Size) }

// Flatten reshapes CxHxW activations into a feature vector; it is the
// bridge between convolutional and dense stages.
type Flatten struct {
	lastDims Dims
	out, dx  Batch
}

var _ Layer = (*Flatten)(nil)

// NewFlatten constructs a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// OutputDims collapses the shape to a vector.
func (f *Flatten) OutputDims(in Dims) Dims { return in.Flat() }

// Forward reinterprets the batch with a flat shape; data is shared
// since the memory layout is identical, so the result lives only as
// long as x does.
func (f *Flatten) Forward(x *Batch) *Batch {
	f.lastDims = x.Dims
	f.out = Batch{N: x.N, Dims: x.Dims.Flat(), Data: x.Data}
	return &f.out
}

// Backward restores the original shape, sharing dy's data.
func (f *Flatten) Backward(dy *Batch) *Batch {
	f.dx = Batch{N: dy.N, Dims: f.lastDims, Data: dy.Data}
	return &f.dx
}

// Params returns nil; Flatten has no parameters.
func (f *Flatten) Params() []float64 { return nil }

// Grads returns nil; Flatten has no parameters.
func (f *Flatten) Grads() []float64 { return nil }

// Init does nothing; Flatten has no parameters.
func (f *Flatten) Init(*rng.RNG) {}

// Clone returns a fresh Flatten.
func (f *Flatten) Clone() Layer { return NewFlatten() }
