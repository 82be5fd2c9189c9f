package nn

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"fuiov/internal/par"
	"fuiov/internal/rng"
	"fuiov/internal/tensor"
)

// Conv2D is a 2-D convolution with stride 1 and "same" zero padding
// when Pad is true (kernel must then have odd size), or "valid"
// (no padding) otherwise. It matches the small CNNs the paper trains:
// two convolutional layers followed by fully connected layers.
//
// Every pass works on zero-padded copies of a sample and never builds
// a patch panel. A receptive field is a window of the padded copy, so
// the forward pass is one matrix product whose right operand's rows are
// overlapping windows of that copy (tensor.WindowMulBiasInto), computed
// at the padded width with the real columns copied out. The input
// gradient convolves the zero-padded output gradient with the flipped
// kernel one tap (ky, kx) at a time (tensor.WindowMulSumInto), and the
// weight gradient multiplies each output row of dY by the windows of
// the padded input (tensor.WindowMulNTAddInto). Each adds every
// element's terms in the order of the im2col + GEMM (+ col2im)
// formulation it replaced, so the bits are unchanged (DESIGN.md §10).
// All scratch is owned by the layer and reused across calls, so
// steady-state training allocates nothing here.
type Conv2D struct {
	InC, OutC int
	K         int  // square kernel size
	Pad       bool // same-padding when true

	params []float64 // weights OutC*InC*K*K, then biases OutC
	grads  []float64

	lastIn  *Batch
	out, dx Batch
	geo     convGeometry
	// xpad holds each sample of lastIn zero-padded (Backward reads its
	// windows for the weight gradient), gpad each sample of the output
	// gradient zero-padded. Their borders are zeroed when growFloats
	// allocates the buffers and never written again. work is the
	// padded-width output (Forward) or input gradient (Backward) of
	// each sample.
	xpad, gpad, work []float64

	// loop runs samples over a batch for the stage being run; fx and
	// fy are that stage's input and output batches.
	loop   par.Loop
	stage  convStage
	fx, fy *Batch
	timing bool
}

// convStage selects what Conv2D.sample computes.
type convStage int

const (
	convForward convStage = iota
	convInputGrad
)

// convGeometry is the padded layout of one input shape: window offsets
// and row positions for the forward pass and the gradients.
type convGeometry struct {
	in      Dims
	pw      int   // padded input width
	xlen    int   // floats per sample in xpad (K−1 slack at the end)
	win     []int // InC·K² window offsets ic·ph·pw + ky·pw + kx into a sample's xpad
	yrows   []int // OutC output rows, OH·pw apart, of a sample's work
	gw      int   // padded output-gradient width, in.W + K − 1
	glen    int   // floats per sample in gpad (K−1 slack at the end)
	gplanes []int // OutC plane offsets into a sample's gpad
	xrows   []int // InC input-gradient rows, in.H·gw apart, of a sample's work
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D constructs the layer. K must be positive and odd when
// same-padding is requested.
func NewConv2D(inC, outC, k int, pad bool) *Conv2D {
	c := &Conv2D{}
	c.init(inC, outC, k, pad)
	c.loop.Body = c.samples
	return c
}

// init checks the shape, sets it and allocates the parameters.
func (c *Conv2D) init(inC, outC, k int, pad bool) {
	if inC <= 0 || outC <= 0 || k <= 0 {
		panic(fmt.Sprintf("nn: invalid conv shape inC=%d outC=%d k=%d", inC, outC, k))
	}
	if pad && k%2 == 0 {
		panic("nn: same-padding requires an odd kernel")
	}
	n := outC*inC*k*k + outC
	c.InC, c.OutC, c.K, c.Pad = inC, outC, k, pad
	c.params, c.grads = make([]float64, n), make([]float64, n)
}

func (c *Conv2D) weights() []float64 { return c.params[:c.OutC*c.InC*c.K*c.K] }
func (c *Conv2D) bias() []float64    { return c.params[c.OutC*c.InC*c.K*c.K:] }

// Init applies He initialisation over the receptive field.
func (c *Conv2D) Init(r *rng.RNG) {
	fanIn := float64(c.InC * c.K * c.K)
	std := math.Sqrt(2 / fanIn)
	w := c.weights()
	for i := range w {
		w[i] = r.NormalScaled(0, std)
	}
	b := c.bias()
	for i := range b {
		b[i] = 0
	}
}

// OutputDims reports the output shape for an input shape.
func (c *Conv2D) OutputDims(in Dims) Dims {
	if c.Pad {
		return Dims{C: c.OutC, H: in.H, W: in.W}
	}
	return Dims{C: c.OutC, H: in.H - c.K + 1, W: in.W - c.K + 1}
}

func (c *Conv2D) padOffset() int {
	if c.Pad {
		return c.K / 2
	}
	return 0
}

// setGeometry lays out the padded buffers for input shape in. A new
// shape drops xpad and gpad, so their next allocation starts zeroed.
func (c *Conv2D) setGeometry(in, out Dims) {
	g := &c.geo
	if g.in == in && g.win != nil {
		return
	}
	k := c.K
	ph, pw := in.H+2*c.padOffset(), in.W+2*c.padOffset()
	gh, gw := in.H+k-1, in.W+k-1
	*g = convGeometry{in: in, pw: pw, xlen: in.C*ph*pw + k - 1,
		gw: gw, glen: c.OutC*gh*gw + k - 1}
	for ic := 0; ic < in.C; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				g.win = append(g.win, ic*ph*pw+ky*pw+kx)
			}
		}
		g.xrows = append(g.xrows, ic*in.H*gw)
	}
	for oc := 0; oc < c.OutC; oc++ {
		g.yrows = append(g.yrows, oc*out.H*pw)
		g.gplanes = append(g.gplanes, oc*gh*gw)
	}
	c.xpad, c.gpad = nil, nil
}

// Forward convolves each sample's zero-padded copy. Samples are
// processed in parallel when the batch is large enough; each sample is
// computed entirely by one goroutine with a fixed accumulation order,
// so results are bit-identical at any parallelism.
func (c *Conv2D) Forward(x *Batch) *Batch {
	out := c.out.Reshape(x.N, c.beginForward(x))
	c.run(convForward, x, out)
	return out
}

// beginForward checks x, lays out the padded buffers for its shape and
// returns the convolution's output shape.
func (c *Conv2D) beginForward(x *Batch) Dims {
	if x.Dims.C != c.InC {
		panic(fmt.Sprintf("nn.Conv2D: input channels %d, layer expects %d", x.Dims.C, c.InC))
	}
	c.lastIn = x
	outDims := c.OutputDims(x.Dims)
	if outDims.H <= 0 || outDims.W <= 0 {
		panic(fmt.Sprintf("nn.Conv2D: kernel %d too large for input %s", c.K, x.Dims))
	}
	c.setGeometry(x.Dims, outDims)
	g := &c.geo
	c.xpad = growFloats(c.xpad, x.N*g.xlen)
	c.work = growFloats(c.work, x.N*c.OutC*outDims.H*g.pw)
	return outDims
}

// run runs stage over every sample of the current batch, fx its input
// and fy its output, on as many workers as the stage's flops warrant.
func (c *Conv2D) run(stage convStage, fx, fy *Batch) {
	x, g := c.lastIn, &c.geo
	rows := c.OutputDims(x.Dims).H * g.pw
	if stage != convForward {
		rows = x.Dims.H * g.gw
	}
	c.stage, c.fx, c.fy, c.timing = stage, fx, fy, kernelTimingOn.Load()
	c.loop.Run(x.N, par.Workers(x.N, 2*c.OutC*len(g.win)*rows))
	c.fx, c.fy = nil, nil
}

// samples runs the current stage on samples [lo, hi).
func (c *Conv2D) samples(lo, hi int) {
	for n := lo; n < hi; n++ {
		if c.stage == convForward {
			c.forwardSample(n)
		} else {
			c.inputGradSample(n)
		}
	}
}

// forwardSample writes sample n's convolution into c.fy, copied out of
// the padded-width rows convolve leaves.
func (c *Conv2D) forwardSample(n int) {
	yw, t := c.convolve(n)
	out, g := c.fy, &c.geo
	oh, ow := out.Dims.H, out.Dims.W
	rowLen := oh * g.pw
	y := out.Sample(n)
	for oc := 0; oc < c.OutC; oc++ {
		copyRows(y[oc*oh*ow:], ow, yw[oc*rowLen:], g.pw, oh, ow)
	}
	c.lap(t, &unpackNanos)
}

// convolve pads sample n of c.fx into its xpad slot and computes its
// convolution at the padded width into its slot of c.work, which it
// returns with the running timer: each output row starts at the bias
// and adds the weight·window terms in (ic, ky, kx) order, as W·im2col
// did. Of each row of pw columns only the first OW are outputs.
func (c *Conv2D) convolve(n int) ([]float64, time.Time) {
	x, g := c.fx, &c.geo
	t := c.startTimer()
	xp := c.xpad[n*g.xlen : (n+1)*g.xlen]
	off, ih, iw := c.padOffset(), x.Dims.H, x.Dims.W
	plane := (ih + 2*off) * g.pw
	in := x.Sample(n)
	for ic := 0; ic < c.InC; ic++ {
		copyRows(xp[ic*plane+off*g.pw+off:], g.pw, in[ic*ih*iw:], iw, ih, iw)
	}
	t = c.lap(t, &packNanos)
	rowLen := c.OutputDims(x.Dims).H * g.pw
	yw := c.work[n*c.OutC*rowLen : (n+1)*c.OutC*rowLen]
	tensor.WindowMulBiasInto(yw, g.yrows, c.bias(), c.weights(), len(g.win), 1, xp, g.win, rowLen)
	return yw, c.lap(t, &gemmNanos)
}

// startTimer and lap attribute kernel wall-clock time when timing is
// on: lap adds the time since t to acc and returns the new start.
func (c *Conv2D) startTimer() time.Time {
	if !c.timing {
		return time.Time{}
	}
	return time.Now()
}

func (c *Conv2D) lap(t time.Time, acc *atomic.Int64) time.Time {
	if !c.timing {
		return t
	}
	now := time.Now()
	acc.Add(now.Sub(t).Nanoseconds())
	return now
}

// Backward accumulates weight/bias gradients and returns dL/dx (input
// gradients in parallel across samples, like Forward).
func (c *Conv2D) Backward(dy *Batch) *Batch {
	dx := c.beginBackward()
	c.run(convInputGrad, dy, dx)
	c.backwardParams(dy)
	return dx
}

// beginBackward sizes the output-gradient and input-gradient buffers
// for the batch Forward saw and returns the input gradient.
func (c *Conv2D) beginBackward() *Batch {
	x := c.lastIn
	if x == nil {
		panic("nn.Conv2D: Backward before Forward")
	}
	c.growGpad()
	c.work = growFloats(c.work, x.N*c.InC*x.Dims.H*c.geo.gw)
	return c.dx.Reshape(x.N, x.Dims)
}

// growGpad sizes gpad for the batch Forward saw.
func (c *Conv2D) growGpad() {
	c.gpad = growFloats(c.gpad, c.lastIn.N*c.geo.glen)
}

// gradLead is the offset of the output gradient's first element in
// each gpad plane, on both axes: K−1−pad.
func (c *Conv2D) gradLead() int { return c.K - 1 - c.padOffset() }

// inputGradSample pads sample n's output gradient into its gpad slot
// and writes its input gradient into c.fy (see inputGrad).
func (c *Conv2D) inputGradSample(n int) {
	dy, g := c.fx, &c.geo
	t := c.startTimer()
	lead := c.gradLead()
	oh, ow := dy.Dims.H, dy.Dims.W
	gp := c.gpad[n*g.glen : (n+1)*g.glen]
	src := dy.Sample(n)
	for oc, o := range g.gplanes {
		copyRows(gp[o+lead*g.gw+lead:], g.gw, src[oc*oh*ow:], ow, oh, ow)
	}
	c.inputGrad(n, c.lap(t, &packNanos))
}

// inputGrad writes sample n's input gradient into c.fy from its gpad
// slot: for each tap (ky, kx) in increasing order it adds, per input
// element, that tap's sum over output channels — the patch-gradient
// element col2im added — read at the window the tap shifts to. A tap
// whose window falls on the padding adds Σ w·0 = +0, which leaves the
// sum as it is because the sum started at +0 and so is never −0. That
// holds for finite weights; an infinite or NaN weight makes such a tap
// NaN (∞·0), where col2im would have added nothing (DESIGN.md §10).
func (c *Conv2D) inputGrad(n int, t time.Time) {
	dx, g := c.fy, &c.geo
	k := c.K
	gp := c.gpad[n*g.glen : (n+1)*g.glen]
	ih, iw := dx.Dims.H, dx.Dims.W
	rowLen := ih * g.gw
	dxw := c.work[n*c.InC*rowLen : (n+1)*c.InC*rowLen]
	clear(dxw)
	w := c.weights()
	for ky := 0; ky < k; ky++ {
		for kx := 0; kx < k; kx++ {
			shift := (k-1-ky)*g.gw + k - 1 - kx
			tensor.WindowMulSumInto(dxw, g.xrows, w[ky*k+kx:], k*k, len(g.win), gp[shift:], g.gplanes, rowLen)
		}
	}
	t = c.lap(t, &gemmNanos)
	d := dx.Sample(n)
	for ic := 0; ic < c.InC; ic++ {
		copyRows(d[ic*ih*iw:], iw, dxw[ic*rowLen:], g.gw, ih, iw)
	}
	c.lap(t, &unpackNanos)
}

// backwardParams accumulates the weight/bias gradients from the output
// gradient dy (see paramGrads).
func (c *Conv2D) backwardParams(dy *Batch) {
	c.paramGrads(dy.Data, dy.Dims.Size(), dy.Dims.H*dy.Dims.W, dy.Dims.W)
}

// paramGrads accumulates the weight/bias gradients serially in sample
// order from the padded inputs Forward kept, each sample's terms added
// onto the running gradient — so gradient bits depend neither on
// parallelism nor on how a batch is split into consecutive calls.
// Sample n's output gradient starts at dy[n*stride]: OutC planes lda
// apart, each OH rows of OW elements astride apart. A weight's window over the padded
// input is OH segments of OW positions, one per output row, pw apart:
// dY times those windows adds the terms in the position order of the
// dY·colᵀ product it replaced.
func (c *Conv2D) paramGrads(dy []float64, stride, lda, astride int) {
	x, g := c.lastIn, &c.geo
	kk := len(g.win)
	out := c.OutputDims(x.Dims)
	oh, ow := out.H, out.W
	gw := c.grads[:c.OutC*kk]
	gb := c.grads[c.OutC*kk:]
	c.timing = kernelTimingOn.Load()
	t := c.startTimer()
	for n := 0; n < x.N; n++ {
		xp := c.xpad[n*g.xlen : (n+1)*g.xlen]
		d := dy[n*stride:]
		tensor.WindowMulNTAddInto(gw, kk, d, lda, astride, xp, g.win, c.OutC, oh, ow, g.pw)
		biasGrads(gb, d, lda, astride, oh, ow)
	}
	c.lap(t, &gemmNanos)
}

// biasGrads adds to gb[oc] the oh·ow output gradients of channel oc,
// d[oc*lda + y*astride + x], in position order: one serial chain per
// channel, four channels' chains interleaved so their adds overlap.
func biasGrads(gb, d []float64, lda, astride, oh, ow int) {
	oc := 0
	for ; oc+4 <= len(gb); oc += 4 {
		s0, s1, s2, s3 := gb[oc], gb[oc+1], gb[oc+2], gb[oc+3]
		for y := 0; y < oh; y++ {
			o := oc*lda + y*astride
			r0, r1, r2, r3 := d[o:o+ow], d[o+lda:o+lda+ow], d[o+2*lda:o+2*lda+ow], d[o+3*lda:o+3*lda+ow]
			for x := range r0 {
				s0 += r0[x]
				s1 += r1[x]
				s2 += r2[x]
				s3 += r3[x]
			}
		}
		gb[oc], gb[oc+1], gb[oc+2], gb[oc+3] = s0, s1, s2, s3
	}
	for ; oc < len(gb); oc++ {
		s := gb[oc]
		for y := 0; y < oh; y++ {
			o := oc*lda + y*astride
			for _, gv := range d[o : o+ow] {
				s += gv
			}
		}
		gb[oc] = s
	}
}

// copyRows copies a rows × width block from src (row stride lds) to
// dst (row stride ldd).
func copyRows(dst []float64, ldd int, src []float64, lds, rows, width int) {
	for r := 0; r < rows; r++ {
		d, s := dst[r*ldd:r*ldd+width], src[r*lds:r*lds+width]
		for i := range d {
			d[i] = s[i]
		}
	}
}

// Params returns a live view of weights followed by biases.
func (c *Conv2D) Params() []float64 { return c.params }

// BiasLen reports the trailing bias entries in Params (one per output
// channel).
func (c *Conv2D) BiasLen() int { return c.OutC }

// Grads returns a live view of the accumulated gradients.
func (c *Conv2D) Grads() []float64 { return c.grads }

// Clone returns a parameter-copying deep copy.
func (c *Conv2D) Clone() Layer {
	out := NewConv2D(c.InC, c.OutC, c.K, c.Pad)
	copy(out.params, c.params)
	return out
}
