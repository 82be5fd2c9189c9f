package nn

import (
	"fmt"
	"math"
	"time"

	"fuiov/internal/rng"
	"fuiov/internal/tensor"
)

// Conv2D is a 2-D convolution with stride 1 and "same" zero padding
// when Pad is true (kernel must then have odd size), or "valid"
// (no padding) otherwise. It matches the small CNNs the paper trains:
// two convolutional layers followed by fully connected layers.
//
// Forward and Backward are formulated as im2col + GEMM (col2im for the
// input gradient): each sample's receptive fields are unpacked into a
// patch matrix once, and the convolution becomes a single matrix
// product against the weight matrix. The patch scratch and the output
// and input-gradient batches are owned by the layer and reused across
// calls, so steady-state training allocates nothing here.
type Conv2D struct {
	InC, OutC int
	K         int  // square kernel size
	Pad       bool // same-padding when true

	params []float64 // weights OutC*InC*K*K, then biases OutC
	grads  []float64

	lastIn  *Batch
	out, dx Batch
	// cols caches the im2col expansion of lastIn (per sample a
	// KK×P panel, KK = InC·K², P = OH·OW); Backward reuses it for the
	// weight-gradient GEMM. dcols is the backward patch-gradient
	// scratch. Both are grown once and reused across calls.
	cols, dcols []float64
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D constructs the layer. K must be positive and odd when
// same-padding is requested.
func NewConv2D(inC, outC, k int, pad bool) *Conv2D {
	if inC <= 0 || outC <= 0 || k <= 0 {
		panic(fmt.Sprintf("nn.NewConv2D: invalid shape inC=%d outC=%d k=%d", inC, outC, k))
	}
	if pad && k%2 == 0 {
		panic("nn.NewConv2D: same-padding requires an odd kernel")
	}
	n := outC*inC*k*k + outC
	return &Conv2D{InC: inC, OutC: outC, K: k, Pad: pad,
		params: make([]float64, n), grads: make([]float64, n)}
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

// Forward performs the convolution as per-sample im2col + GEMM.
// Samples are processed in parallel when the batch is large enough;
// each sample is computed entirely by one goroutine with a fixed
// accumulation order, so results are bit-identical at any parallelism.
func (c *Conv2D) Forward(x *Batch) *Batch {
	if x.Dims.C != c.InC {
		panic(fmt.Sprintf("nn.Conv2D: input channels %d, layer expects %d", x.Dims.C, c.InC))
	}
	c.lastIn = x
	outDims := c.OutputDims(x.Dims)
	if outDims.H <= 0 || outDims.W <= 0 {
		panic(fmt.Sprintf("nn.Conv2D: kernel %d too large for input %s", c.K, x.Dims))
	}
	out := c.out.Reshape(x.N, outDims)
	kk := c.InC * c.K * c.K
	p := outDims.H * outDims.W
	c.cols = growFloats(c.cols, x.N*kk*p)
	timing := kernelTimingOn.Load()
	// The closure is built only on the parallel branch: one passed
	// near a go statement always escapes, and the serial path must
	// stay allocation-free.
	if serialSamples(x.N, 2*c.OutC*kk*p) {
		for n := 0; n < x.N; n++ {
			c.forwardSample(x, out, n, timing)
		}
	} else {
		spawnSamples(x.N, func(n int) { c.forwardSample(x, out, n, timing) })
	}
	return out
}

// forwardSample unpacks sample n of x into its cols panel and writes
// its convolution into out.
func (c *Conv2D) forwardSample(x, out *Batch, n int, timing bool) {
	var t0 time.Time
	if timing {
		t0 = time.Now()
	}
	kk := c.InC * c.K * c.K
	p := out.Dims.H * out.Dims.W
	col := &tensor.Matrix{Rows: kk, Cols: p, Data: c.cols[n*kk*p : (n+1)*kk*p]}
	im2col(x.Sample(n), col.Data, x.Dims, c.K, c.padOffset(), out.Dims)
	if timing {
		t1 := time.Now()
		im2colNanos.Add(t1.Sub(t0).Nanoseconds())
		t0 = t1
	}
	// y starts at the bias and accumulates weight·patch terms in
	// the same (ic, ky, kx) order as the direct loop.
	y := &tensor.Matrix{Rows: c.OutC, Cols: p, Data: out.Sample(n)}
	b := c.bias()
	for oc := 0; oc < c.OutC; oc++ {
		row := y.Data[oc*p : (oc+1)*p]
		bias := b[oc]
		for j := range row {
			row[j] = bias
		}
	}
	w := &tensor.Matrix{Rows: c.OutC, Cols: kk, Data: c.weights()}
	tensor.MatMulAddInto(y, w, col)
	if timing {
		gemmNanos.Add(time.Since(t0).Nanoseconds())
	}
}

// Backward accumulates weight/bias gradients and returns dL/dx,
// computed per sample as Wᵀ·dY followed by col2im (parallel across
// samples, like Forward).
func (c *Conv2D) Backward(dy *Batch) *Batch {
	x := c.lastIn
	if x == nil {
		panic("nn.Conv2D: Backward before Forward")
	}
	dx := c.dx.Reshape(x.N, x.Dims)
	clear(dx.Data) // col2im scatter-adds
	kk := c.InC * c.K * c.K
	p := dy.Dims.H * dy.Dims.W
	c.dcols = growFloats(c.dcols, x.N*kk*p)
	timing := kernelTimingOn.Load()
	if serialSamples(x.N, 4*c.OutC*kk*p) {
		for n := 0; n < x.N; n++ {
			c.inputGradSample(dy, dx, n, timing)
		}
	} else {
		spawnSamples(x.N, func(n int) { c.inputGradSample(dy, dx, n, timing) })
	}
	c.backwardParams(dy)
	return dx
}

// inputGradSample writes sample n's input gradient into dx (already
// cleared): Wᵀ·dY into the sample's dcols panel, then col2im.
func (c *Conv2D) inputGradSample(dy, dx *Batch, n int, timing bool) {
	var t0 time.Time
	if timing {
		t0 = time.Now()
	}
	kk := c.InC * c.K * c.K
	p := dy.Dims.H * dy.Dims.W
	w := &tensor.Matrix{Rows: c.OutC, Cols: kk, Data: c.weights()}
	dyM := &tensor.Matrix{Rows: c.OutC, Cols: p, Data: dy.Sample(n)}
	dcol := &tensor.Matrix{Rows: kk, Cols: p, Data: c.dcols[n*kk*p : (n+1)*kk*p]}
	tensor.MatMulTNInto(dcol, w, dyM)
	if timing {
		t1 := time.Now()
		gemmNanos.Add(t1.Sub(t0).Nanoseconds())
		t0 = t1
	}
	col2im(dcol.Data, dx.Sample(n), dx.Dims, c.K, c.padOffset(), dy.Dims)
	if timing {
		col2imNanos.Add(time.Since(t0).Nanoseconds())
	}
}

// backwardParams accumulates the weight/bias gradients serially in
// sample order against the im2col panels cached by Forward, each
// sample's terms added onto the running gradient — so gradient bits
// depend neither on parallelism nor on how a batch is split into
// consecutive calls.
func (c *Conv2D) backwardParams(dy *Batch) {
	x := c.lastIn
	kk := c.InC * c.K * c.K
	p := dy.Dims.H * dy.Dims.W
	gwM := &tensor.Matrix{Rows: c.OutC, Cols: kk, Data: c.grads[:c.OutC*kk]}
	gb := c.grads[c.OutC*kk:]
	var t0 time.Time
	timing := kernelTimingOn.Load()
	if timing {
		t0 = time.Now()
	}
	for n := 0; n < x.N; n++ {
		dyM := &tensor.Matrix{Rows: c.OutC, Cols: p, Data: dy.Sample(n)}
		col := &tensor.Matrix{Rows: kk, Cols: p, Data: c.cols[n*kk*p : (n+1)*kk*p]}
		tensor.MatMulNTAddInto(gwM, dyM, col)
		g := dy.Sample(n)
		for oc := 0; oc < c.OutC; oc++ {
			s := gb[oc]
			for _, gv := range g[oc*p : (oc+1)*p] {
				s += gv
			}
			gb[oc] = s
		}
	}
	if timing {
		gemmNanos.Add(time.Since(t0).Nanoseconds())
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
