package nn

import (
	"math"
	"testing"

	"fuiov/internal/rng"
)

// numericalGrad computes the central-difference gradient of the mean
// cross-entropy loss with respect to every network parameter.
func numericalGrad(t *testing.T, net *Network, x *Batch, labels []int) []float64 {
	t.Helper()
	const h = 1e-5
	params := net.ParamVector()
	grad := make([]float64, len(params))
	for i := range params {
		orig := params[i]
		params[i] = orig + h
		net.SetParamVector(params)
		lossPlus, _ := net.Evaluate(x, labels)
		params[i] = orig - h
		net.SetParamVector(params)
		lossMinus, _ := net.Evaluate(x, labels)
		params[i] = orig
		grad[i] = (lossPlus - lossMinus) / (2 * h)
	}
	net.SetParamVector(params)
	return grad
}

func checkGrads(t *testing.T, net *Network, x *Batch, labels []int) {
	t.Helper()
	net.LossAndGrad(x, labels)
	analytic := net.GradVector()
	numeric := numericalGrad(t, net, x, labels)
	worst, worstIdx := 0.0, -1
	for i := range analytic {
		diff := math.Abs(analytic[i] - numeric[i])
		scale := math.Max(1, math.Abs(numeric[i]))
		rel := diff / scale
		if rel > worst {
			worst, worstIdx = rel, i
		}
	}
	if worst > 2e-4 {
		t.Fatalf("gradient check failed: param %d analytic=%g numeric=%g (rel err %g)",
			worstIdx, analytic[worstIdx], numeric[worstIdx], worst)
	}
}

func randomBatch(r *rng.RNG, n int, dims Dims, classes int) (*Batch, []int) {
	b := NewBatch(n, dims)
	for i := range b.Data {
		b.Data[i] = r.NormalScaled(0, 1)
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = r.IntN(classes)
	}
	return b, labels
}

func TestGradCheckDense(t *testing.T) {
	r := rng.New(100)
	net := MustNetwork(Dims{C: 7, H: 1, W: 1}, NewDense(7, 5))
	net.Init(r)
	x, labels := randomBatch(r, 4, net.InDims, 5)
	checkGrads(t, net, x, labels)
}

func TestGradCheckDenseReLUStack(t *testing.T) {
	r := rng.New(101)
	net := NewMLP(6, 8, 5, 3)
	net.Init(r)
	x, labels := randomBatch(r, 5, net.InDims, 3)
	checkGrads(t, net, x, labels)
}

func TestGradCheckTanh(t *testing.T) {
	r := rng.New(102)
	net := MustNetwork(Dims{C: 4, H: 1, W: 1},
		NewDense(4, 6), NewTanh(), NewDense(6, 3))
	net.Init(r)
	x, labels := randomBatch(r, 3, net.InDims, 3)
	checkGrads(t, net, x, labels)
}

func TestGradCheckConvValid(t *testing.T) {
	r := rng.New(103)
	net := MustNetwork(Dims{C: 2, H: 5, W: 5},
		NewConv2D(2, 3, 3, false), NewFlatten(), NewDense(3*3*3, 4))
	net.Init(r)
	x, labels := randomBatch(r, 3, net.InDims, 4)
	checkGrads(t, net, x, labels)
}

func TestGradCheckConvSamePadding(t *testing.T) {
	r := rng.New(104)
	net := MustNetwork(Dims{C: 1, H: 4, W: 4},
		NewConv2D(1, 2, 3, true), NewFlatten(), NewDense(2*4*4, 3))
	net.Init(r)
	x, labels := randomBatch(r, 2, net.InDims, 3)
	checkGrads(t, net, x, labels)
}

func TestGradCheckConvReLUPool(t *testing.T) {
	r := rng.New(105)
	net := MustNetwork(Dims{C: 1, H: 6, W: 6},
		NewConvReLUPool(1, 2, 3), NewFlatten(), NewDense(2*3*3, 3))
	net.Init(r)
	x, labels := randomBatch(r, 3, net.InDims, 3)
	checkGrads(t, net, x, labels)
}

func TestGradCheckFullDigitsCNN(t *testing.T) {
	if testing.Short() {
		t.Skip("full CNN gradient check is slow")
	}
	r := rng.New(106)
	net := NewDigitsCNN(8, 4)
	net.Init(r)
	x, labels := randomBatch(r, 2, net.InDims, 4)
	checkGrads(t, net, x, labels)
}

func TestGradCheckTrafficCNN(t *testing.T) {
	if testing.Short() {
		t.Skip("full CNN gradient check is slow")
	}
	r := rng.New(107)
	net := NewTrafficCNN(8, 5)
	net.Init(r)
	x, labels := randomBatch(r, 2, net.InDims, 5)
	checkGrads(t, net, x, labels)
}

func TestGradAccumulationZeroedBetweenCalls(t *testing.T) {
	r := rng.New(108)
	net := NewMLP(4, 3)
	net.Init(r)
	x, labels := randomBatch(r, 3, net.InDims, 3)
	net.LossAndGrad(x, labels)
	g1 := net.GradVector()
	net.LossAndGrad(x, labels)
	g2 := net.GradVector()
	for i := range g1 {
		if math.Abs(g1[i]-g2[i]) > 1e-12 {
			t.Fatalf("grads accumulated across calls at %d: %g vs %g", i, g1[i], g2[i])
		}
	}
}
