package nn

import (
	"fmt"

	"fuiov/internal/cpuid"
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
				o := (c*oh + oy) * ow
				base := c*ih*iw + oy*p.Size*iw
				if p.Size == 2 {
					maxPool2(y[o:o+ow], am[o:o+ow], in, iw, base)
				} else {
					p.poolRow(y[o:o+ow], am[o:o+ow], in, iw, base)
				}
			}
		}
	}
	return out
}

// poolRow fills one row of outputs for any window size: window ox
// covers rows base/iw … +Size−1 and columns ox·Size … +Size−1 of in,
// scanned row by row from its top-left element, and a later element
// replaces the running maximum only when strictly greater — so the
// first maximum wins and a NaN neither replaces nor is replaced.
func (p *MaxPool2D) poolRow(y []float64, am []int, in []float64, iw, base int) {
	for ox := range y {
		bestIdx := base + ox*p.Size
		best := in[bestIdx]
		for ky := 0; ky < p.Size; ky++ {
			for kx := 0; kx < p.Size; kx++ {
				idx := base + ky*iw + ox*p.Size + kx
				if in[idx] > best {
					best, bestIdx = in[idx], idx
				}
			}
		}
		y[ox] = best
		am[ox] = bestIdx
	}
}

// maxPool2 is poolRow for 2×2 windows: whole 4-output blocks in
// maxPool2AVX2 when the CPU has AVX2, the rest in maxPool2Go.
func maxPool2(y []float64, am []int, in []float64, iw, base int) {
	if cpuid.AVX2 {
		n := len(y) &^ 3
		if n > 0 {
			maxPool2AVX2(y[:n], am[:n], in[base:base+iw+2*n], iw, base)
			y, am, base = y[n:], am[n:], base+2*n
		}
	}
	maxPool2Go(y, am, in, iw, base)
}

// maxPool2Go is poolRow unrolled for 2×2 windows, comparing the four
// positions in the same order: the tail, the fallback and the oracle
// the vector body is held to.
func maxPool2Go(y []float64, am []int, in []float64, iw, base int) {
	am = am[:len(y)]
	for ox := range y {
		i := base + 2*ox
		best, bestIdx := in[i], i
		if v := in[i+1]; v > best {
			best, bestIdx = v, i+1
		}
		if v := in[i+iw]; v > best {
			best, bestIdx = v, i+iw
		}
		if v := in[i+iw+1]; v > best {
			best, bestIdx = v, i+iw+1
		}
		y[ox], am[ox] = best, bestIdx
	}
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
