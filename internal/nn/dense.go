package nn

import (
	"fmt"
	"math"
	"time"

	"fuiov/internal/rng"
	"fuiov/internal/tensor"
)

// Dense is a fully connected layer computing y = W·x + b for each
// sample, where x is the flattened input. The whole batch is computed
// as a single GEMM per call: the sample-major batch layout is exactly
// a row-major N×In matrix, so Y = X·Wᵀ + b, dX = dY·W and
// dW += dYᵀ·X need no reshaping or copying.
type Dense struct {
	In, Out int
	// weights are stored row-major: w[o*In+i] connects input i to
	// output o. bias follows in the same backing array so Params can
	// expose a single contiguous view.
	params []float64 // len In*Out + Out
	grads  []float64

	lastIn  *Batch // cached input for backward
	out, dx Batch
}

var _ Layer = (*Dense)(nil)

// NewDense constructs a Dense layer with the given fan-in and fan-out.
// Parameters are zero until Init is called (Network.Init does this).
func NewDense(in, out int) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn.NewDense: invalid shape %d -> %d", in, out))
	}
	n := in*out + out
	return &Dense{In: in, Out: out, params: make([]float64, n), grads: make([]float64, n)}
}

func (d *Dense) weights() []float64 { return d.params[:d.In*d.Out] }
func (d *Dense) bias() []float64    { return d.params[d.In*d.Out:] }

// Init applies He initialisation, appropriate for the ReLU networks
// used in the experiments.
func (d *Dense) Init(r *rng.RNG) {
	std := math.Sqrt(2 / float64(d.In))
	w := d.weights()
	for i := range w {
		w[i] = r.NormalScaled(0, std)
	}
	b := d.bias()
	for i := range b {
		b[i] = 0
	}
}

// Forward computes the affine map for the whole batch as one GEMM:
// Y = X·Wᵀ + b, accumulated per element in fan-in order onto the bias
// — the same summation the per-sample loop performs, so results are
// bit-identical to it and independent of parallelism.
func (d *Dense) Forward(x *Batch) *Batch {
	if x.Dims.Size() != d.In {
		panic(fmt.Sprintf("nn.Dense: input size %d, layer expects %d", x.Dims.Size(), d.In))
	}
	d.lastIn = x
	out := d.out.Reshape(x.N, Dims{C: d.Out, H: 1, W: 1})
	w, b := d.weights(), d.bias()
	var t0 time.Time
	timing := kernelTimingOn.Load()
	if timing {
		t0 = time.Now()
	}
	for n := 0; n < x.N; n++ {
		copy(out.Sample(n), b)
	}
	xm := &tensor.Matrix{Rows: x.N, Cols: d.In, Data: x.Data}
	wm := &tensor.Matrix{Rows: d.Out, Cols: d.In, Data: w}
	ym := &tensor.Matrix{Rows: x.N, Cols: d.Out, Data: out.Data}
	tensor.MatMulNTAddInto(ym, xm, wm)
	if timing {
		gemmNanos.Add(time.Since(t0).Nanoseconds())
	}
	return out
}

// Backward accumulates dL/dW and dL/db and returns dL/dx = dY·W, one
// batched GEMM.
func (d *Dense) Backward(dy *Batch) *Batch {
	x := d.lastIn
	if x == nil {
		panic("nn.Dense: Backward before Forward")
	}
	dx := d.dx.Reshape(x.N, x.Dims)
	var t0 time.Time
	timing := kernelTimingOn.Load()
	if timing {
		t0 = time.Now()
	}
	dym := &tensor.Matrix{Rows: x.N, Cols: d.Out, Data: dy.Data}
	wm := &tensor.Matrix{Rows: d.Out, Cols: d.In, Data: d.weights()}
	dxm := &tensor.Matrix{Rows: x.N, Cols: d.In, Data: dx.Data}
	tensor.MatMulInto(dxm, dym, wm)
	if timing {
		gemmNanos.Add(time.Since(t0).Nanoseconds())
	}
	d.backwardParams(dy)
	return dx
}

// backwardParams accumulates dW += dYᵀ·X and db += Σ dY. The
// transposed kernel sums over samples in increasing order onto the
// running gradient, so splitting a batch into consecutive calls leaves
// every bit unchanged.
func (d *Dense) backwardParams(dy *Batch) {
	x := d.lastIn
	gb := d.grads[d.In*d.Out:]
	var t0 time.Time
	timing := kernelTimingOn.Load()
	if timing {
		t0 = time.Now()
	}
	dym := &tensor.Matrix{Rows: x.N, Cols: d.Out, Data: dy.Data}
	xm := &tensor.Matrix{Rows: x.N, Cols: d.In, Data: x.Data}
	gwm := &tensor.Matrix{Rows: d.Out, Cols: d.In, Data: d.grads[:d.In*d.Out]}
	tensor.MatMulTNAddInto(gwm, dym, xm)
	for n := 0; n < x.N; n++ {
		for o, g := range dy.Sample(n) {
			gb[o] += g
		}
	}
	if timing {
		gemmNanos.Add(time.Since(t0).Nanoseconds())
	}
}

// Params returns a live view of weights followed by biases.
func (d *Dense) Params() []float64 { return d.params }

// BiasLen reports the trailing bias entries in Params (one per output).
func (d *Dense) BiasLen() int { return d.Out }

// Grads returns a live view of the accumulated gradients.
func (d *Dense) Grads() []float64 { return d.grads }

// OutputDims reports the flattened output shape.
func (d *Dense) OutputDims(Dims) Dims { return Dims{C: d.Out, H: 1, W: 1} }

// Clone returns a parameter-copying deep copy.
func (d *Dense) Clone() Layer {
	out := NewDense(d.In, d.Out)
	copy(out.params, d.params)
	return out
}
