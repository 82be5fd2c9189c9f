package nn

import (
	"fmt"
	"math"

	"fuiov/internal/cpuid"
	"fuiov/internal/rng"
)

// ConvReLUPool is a same-padded Conv2D followed by ReLU and 2×2 max
// pooling, run as one layer so no stage writes a batch the next one
// only reads. Forward's epilogue reads the convolution's padded-width
// rows where the kernel left them and writes only the pooled output and
// each output's argmax. Backward scatters the ReLU-masked pooled
// gradient straight into the convolution's zero-padded output-gradient
// buffer, where the input and weight gradients read it. Every element
// gets the ops of the three layers it replaced, in their order, so the
// bits are theirs (DESIGN.md §10): ReLU maps x to x where x > 0 and to
// +0 elsewhere (NaN and −0 included), the pool keeps the first strictly
// greater of its window's four ReLU outputs scanned row by row, and the
// gradient reaching the argmax is +0 + g where that output is positive
// and +0 elsewhere. Odd heights and widths crop the last row and
// column, whose gradient stays the +0 gpad was allocated with.
type ConvReLUPool struct {
	Conv2D
	// argmax holds each pooled output's source within its window, as an
	// offset from the window's top-left element in the padded-width
	// rows: 0, 1, pw or pw+1.
	argmax []int
}

var _ Layer = (*ConvReLUPool)(nil)

// NewConvReLUPool constructs the layer: a K×K same-padded convolution
// from inC to outC channels (K positive and odd), ReLU, and 2×2 max
// pooling.
func NewConvReLUPool(inC, outC, k int) *ConvReLUPool {
	p := &ConvReLUPool{}
	p.init(inC, outC, k, true)
	p.loop.Body = p.samples
	return p
}

// OutputDims reports the pooled shape.
func (p *ConvReLUPool) OutputDims(in Dims) Dims {
	return Dims{C: p.OutC, H: in.H / 2, W: in.W / 2}
}

// Forward convolves, rectifies and pools each sample, in parallel
// across samples like Conv2D.Forward.
func (p *ConvReLUPool) Forward(x *Batch) *Batch {
	p.beginForward(x)
	out := p.out.Reshape(x.N, p.OutputDims(x.Dims))
	if out.Dims.H <= 0 || out.Dims.W <= 0 {
		panic(fmt.Sprintf("nn.ConvReLUPool: input %s too small to pool", x.Dims))
	}
	if cap(p.argmax) < len(out.Data) {
		p.argmax = make([]int, len(out.Data))
	}
	p.argmax = p.argmax[:len(out.Data)]
	p.run(convForward, x, out)
	return out
}

// samples runs the current stage on samples [lo, hi).
func (p *ConvReLUPool) samples(lo, hi int) {
	for n := lo; n < hi; n++ {
		if p.stage == convForward {
			yw, t := p.convolve(n)
			p.reluPool(n, yw)
			p.lap(t, &unpackNanos)
		} else {
			t := p.startTimer()
			p.scatter(n)
			p.inputGrad(n, p.lap(t, &packNanos))
		}
	}
}

// reluPool writes sample n's pooled outputs and argmax from its
// padded-width convolution rows yw.
func (p *ConvReLUPool) reluPool(n int, yw []float64) {
	out, pw := p.fy, p.geo.pw
	oh, ow := out.Dims.H, out.Dims.W
	ih := p.lastIn.Dims.H
	y := out.Sample(n)
	am := p.argmax[n*len(y) : (n+1)*len(y)]
	for oc := 0; oc < p.OutC; oc++ {
		for py := 0; py < oh; py++ {
			o := (oc*oh + py) * ow
			reluPool2(y[o:o+ow], am[o:o+ow], yw[(oc*ih+2*py)*pw:], pw)
		}
	}
}

// reluPool2 pools one row of outputs: output ox is the first strictly
// greater ReLU output of in[2ox], in[2ox+1], in[pw+2ox] and
// in[pw+2ox+1], and am[ox] its offset from in[2ox]. The row runs in
// reluPool2AVX2 when the CPU has AVX2.
func reluPool2(y []float64, am []int, in []float64, pw int) {
	if cpuid.AVX2 {
		reluPool2AVX2(y, am[:len(y)], in[:pw+2*len(y)], pw)
		return
	}
	reluPool2Go(y, am, in, pw)
}

// reluPool2Go is the portable reluPool2: the fallback and the oracle
// the vector body is held to.
func reluPool2Go(y []float64, am []int, in []float64, pw int) {
	am = am[:len(y)]
	for ox := range y {
		i := 2 * ox
		best, at := relu(in[i]), 0
		if v := relu(in[i+1]); v > best {
			best, at = v, 1
		}
		if v := relu(in[i+pw]); v > best {
			best, at = v, pw
		}
		if v := relu(in[i+pw+1]); v > best {
			best, at = v, pw+1
		}
		y[ox], am[ox] = best, at
	}
}

// relu is v where v > 0 and +0 elsewhere.
func relu(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// scatter writes sample n's pooled gradient (of c.fx) into its gpad
// slot, one row of windows at a time (unpool2). The windows tile the
// uncropped plane, so every element they cover is written and none
// needs clearing first.
func (p *ConvReLUPool) scatter(n int) {
	dy, g := p.fx, &p.geo
	oh, ow := dy.Dims.H, dy.Dims.W
	lead := p.gradLead()
	gp := p.gpad[n*g.glen : (n+1)*g.glen]
	src, y := dy.Sample(n), p.out.Sample(n)
	am := p.argmax[n*len(y) : (n+1)*len(y)]
	for oc, plane := range g.gplanes {
		for py := 0; py < oh; py++ {
			o := (oc*oh + py) * ow
			top := plane + (lead+2*py)*g.gw + lead
			unpool2(gp[top:], src[o:o+ow], y[o:o+ow], am[o:o+ow], g.gw)
		}
	}
}

// unpool2 writes one row of 2×2 windows: window ox, whose top-left is
// w[2ox], gets +0 + g[ox] at its argmax offset am[ox] when the pooled
// output y[ox] is positive and +0 at its other three positions — the
// pool's clear-and-add, then the ReLU mask. The row runs in
// unpool2AVX2 when the CPU has AVX2.
func unpool2(w, g, y []float64, am []int, gw int) {
	if cpuid.AVX2 {
		unpool2AVX2(w[:gw+2*len(g)], g, y[:len(g)], am[:len(g)], gw)
		return
	}
	unpool2Go(w, g, y, am, gw)
}

// unpool2Go is the portable unpool2: the fallback and the oracle the
// vector body is held to.
func unpool2Go(w, g, y []float64, am []int, gw int) {
	y, am = y[:len(g)], am[:len(g)]
	for ox, gv := range g {
		// y is +0 or positive, so its bits are zero exactly where the
		// mask is off: an integer select, no branch.
		v := math.Float64bits(0 + gv)
		if math.Float64bits(y[ox]) == 0 {
			v = 0
		}
		win := w[2*ox : 2*ox+gw+2]
		win[0], win[1], win[gw], win[gw+1] = 0, 0, 0, 0
		win[am[ox]] = math.Float64frombits(v)
	}
}

// Backward accumulates the weight/bias gradients and returns dL/dx.
func (p *ConvReLUPool) Backward(dy *Batch) *Batch {
	dx := p.beginBackward()
	p.run(convInputGrad, dy, dx)
	p.gpadParamGrads()
	return dx
}

// backwardParams accumulates the weight/bias gradients without forming
// the input gradient: the scatter, then the parameter pass.
func (p *ConvReLUPool) backwardParams(dy *Batch) {
	if p.lastIn == nil {
		panic("nn.ConvReLUPool: Backward before Forward")
	}
	p.growGpad()
	p.fx = dy
	for n := 0; n < dy.N; n++ {
		p.scatter(n)
	}
	p.fx = nil
	p.gpadParamGrads()
}

// gpadParamGrads runs Conv2D.paramGrads over the convolution's output
// gradient where scatter left it, in gpad's rows.
func (p *ConvReLUPool) gpadParamGrads() {
	g := &p.geo
	lead := p.gradLead()
	p.paramGrads(p.gpad[lead*g.gw+lead:], g.glen, (g.in.H+p.K-1)*g.gw, g.gw)
}

// Clone returns a parameter-copying deep copy.
func (p *ConvReLUPool) Clone() Layer {
	out := NewConvReLUPool(p.InC, p.OutC, p.K)
	copy(out.params, p.params)
	return out
}

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
