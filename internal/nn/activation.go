package nn

import (
	"math"

	"fuiov/internal/cpuid"
	"fuiov/internal/rng"
)

// ReLU applies max(0, x) elementwise.
type ReLU struct {
	lastIn  *Batch
	out, dx Batch
}

var _ Layer = (*ReLU)(nil)

// NewReLU constructs a ReLU activation.
func NewReLU() *ReLU { return &ReLU{} }

// OutputDims is the identity.
func (r *ReLU) OutputDims(in Dims) Dims { return in }

// Forward clamps negatives to zero.
func (r *ReLU) Forward(x *Batch) *Batch {
	r.lastIn = x
	out := r.out.Reshape(x.N, x.Dims)
	reluMask(out.Data, x.Data, x.Data)
	return out
}

// Backward masks the gradient by the sign of the forward input.
func (r *ReLU) Backward(dy *Batch) *Batch {
	x := r.lastIn
	if x == nil {
		panic("nn.ReLU: Backward before Forward")
	}
	dx := r.dx.Reshape(dy.N, dy.Dims)
	reluMask(dx.Data, x.Data, dy.Data)
	return dx
}

// reluMask sets dst[i] = y[i] where x[i] > 0 and +0 elsewhere (NaN and
// −0 included): Forward passes y = x, Backward the upstream gradient.
// Whole 4-element blocks run in reluMaskAVX2 when the CPU has AVX2.
func reluMask(dst, x, y []float64) {
	if cpuid.AVX2 {
		n := len(x) &^ 3
		reluMaskAVX2(dst[:n], x[:n], y[:n])
		dst, x, y = dst[n:], x[n:], y[n:]
	}
	reluMaskGo(dst, x, y)
}

// reluMaskGo is the portable reluMask: the tail, the fallback and the
// oracle the vector body is held to.
func reluMaskGo(dst, x, y []float64) {
	dst, y = dst[:len(x)], y[:len(x)]
	for i, v := range x {
		if v > 0 {
			dst[i] = y[i]
		} else {
			dst[i] = 0
		}
	}
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []float64 { return nil }

// Grads returns nil; ReLU has no parameters.
func (r *ReLU) Grads() []float64 { return nil }

// Init does nothing; ReLU has no parameters.
func (r *ReLU) Init(*rng.RNG) {}

// Clone returns a fresh ReLU.
func (r *ReLU) Clone() Layer { return NewReLU() }

// Tanh applies the hyperbolic tangent elementwise. It is provided for
// the ablation configurations; the paper's models use ReLU.
type Tanh struct {
	lastOut *Batch
	out, dx Batch
}

var _ Layer = (*Tanh)(nil)

// NewTanh constructs a Tanh activation.
func NewTanh() *Tanh { return &Tanh{} }

// OutputDims is the identity.
func (t *Tanh) OutputDims(in Dims) Dims { return in }

// Forward applies tanh.
func (t *Tanh) Forward(x *Batch) *Batch {
	out := t.out.Reshape(x.N, x.Dims)
	for i, v := range x.Data {
		out.Data[i] = tanh(v)
	}
	t.lastOut = out
	return out
}

// Backward uses d tanh = 1 - tanh².
func (t *Tanh) Backward(dy *Batch) *Batch {
	y := t.lastOut
	if y == nil {
		panic("nn.Tanh: Backward before Forward")
	}
	dx := t.dx.Reshape(dy.N, dy.Dims)
	for i, v := range y.Data {
		dx.Data[i] = dy.Data[i] * (1 - v*v)
	}
	return dx
}

// Params returns nil; Tanh has no parameters.
func (t *Tanh) Params() []float64 { return nil }

// Grads returns nil; Tanh has no parameters.
func (t *Tanh) Grads() []float64 { return nil }

// Init does nothing; Tanh has no parameters.
func (t *Tanh) Init(*rng.RNG) {}

// Clone returns a fresh Tanh.
func (t *Tanh) Clone() Layer { return NewTanh() }

func tanh(x float64) float64 { return math.Tanh(x) }
