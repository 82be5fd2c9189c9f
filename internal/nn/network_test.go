package nn

import (
	"math"
	"testing"

	"fuiov/internal/rng"
)

func TestParamVectorRoundTrip(t *testing.T) {
	r := rng.New(200)
	net := NewDigitsCNN(8, 10)
	net.Init(r)
	v := net.ParamVector()
	if len(v) != net.NumParams() {
		t.Fatalf("ParamVector len = %d, want %d", len(v), net.NumParams())
	}
	// Mutate the copy; network must be unaffected.
	v2 := make([]float64, len(v))
	copy(v2, v)
	v[0] += 42
	if got := net.ParamVector()[0]; got != v2[0] {
		t.Fatal("ParamVector returned a live view, want a copy")
	}
	// Round trip through SetParamVector.
	for i := range v2 {
		v2[i] = float64(i%17) - 8
	}
	net.SetParamVector(v2)
	got := net.ParamVector()
	for i := range v2 {
		if got[i] != v2[i] {
			t.Fatalf("round trip mismatch at %d: %g vs %g", i, got[i], v2[i])
		}
	}
}

func TestSetParamVectorWrongLenPanics(t *testing.T) {
	net := NewMLP(3, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong-length vector")
		}
	}()
	net.SetParamVector(make([]float64, 5))
}

func TestCloneIndependence(t *testing.T) {
	r := rng.New(201)
	net := NewDigitsCNN(8, 10)
	net.Init(r)
	clone := net.Clone()
	orig := net.ParamVector()
	cp := clone.ParamVector()
	for i := range orig {
		if orig[i] != cp[i] {
			t.Fatalf("clone params differ at %d", i)
		}
	}
	// Training the clone must not affect the original.
	x, labels := randomBatch(r, 4, net.InDims, 10)
	clone.LossAndGrad(x, labels)
	clone.SGDStep(0.1)
	after := net.ParamVector()
	for i := range orig {
		if orig[i] != after[i] {
			t.Fatal("training a clone mutated the original")
		}
	}
}

func TestInitDeterminism(t *testing.T) {
	a := NewDigitsCNN(8, 10)
	b := NewDigitsCNN(8, 10)
	a.Init(rng.New(7))
	b.Init(rng.New(7))
	va, vb := a.ParamVector(), b.ParamVector()
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("same-seed init differs at %d", i)
		}
	}
	c := NewDigitsCNN(8, 10)
	c.Init(rng.New(8))
	vc := c.ParamVector()
	same := 0
	for i := range va {
		if va[i] == vc[i] {
			same++
		}
	}
	if same > len(va)/10 {
		t.Fatalf("different seeds produced %d/%d identical params", same, len(va))
	}
}

func TestSGDStepReducesLoss(t *testing.T) {
	r := rng.New(202)
	net := NewMLP(10, 16, 4)
	net.Init(r)
	x, labels := randomBatch(r, 32, net.InDims, 4)
	loss0, _ := net.Evaluate(x, labels)
	for i := 0; i < 50; i++ {
		net.LossAndGrad(x, labels)
		net.SGDStep(0.5)
	}
	loss1, _ := net.Evaluate(x, labels)
	if loss1 >= loss0 {
		t.Fatalf("SGD did not reduce loss: %g -> %g", loss0, loss1)
	}
}

func TestNetworkLearnsSeparableTask(t *testing.T) {
	// Two well-separated Gaussian blobs must be learnable to high
	// accuracy by a small MLP.
	r := rng.New(203)
	n := 200
	x := NewBatch(n, Dims{C: 2, H: 1, W: 1})
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		labels[i] = c
		s := x.Sample(i)
		center := 2.0
		if c == 0 {
			center = -2.0
		}
		s[0] = r.NormalScaled(center, 0.5)
		s[1] = r.NormalScaled(-center, 0.5)
	}
	net := NewMLP(2, 8, 2)
	net.Init(r)
	for i := 0; i < 100; i++ {
		net.LossAndGrad(x, labels)
		net.SGDStep(0.3)
	}
	_, correct := net.Evaluate(x, labels)
	if acc := float64(correct) / float64(n); acc < 0.95 {
		t.Fatalf("accuracy = %v, want >= 0.95", acc)
	}
}

// softmaxCrossEntropy runs the production loss kernel over one whole
// batch, gradient included.
func softmaxCrossEntropy(logits *Batch, labels []int) (float64, *Batch) {
	grad := NewBatch(logits.N, logits.Dims)
	loss, _ := crossEntropy(0, logits, labels, 1/float64(logits.N), grad)
	return loss, grad
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits: loss = ln(K), gradient rows sum to 0.
	b := NewBatch(2, Dims{C: 4, H: 1, W: 1})
	loss, grad := softmaxCrossEntropy(b, []int{0, 3})
	if want := math.Log(4); math.Abs(loss-want) > 1e-12 {
		t.Errorf("loss = %g, want %g", loss, want)
	}
	for n := 0; n < 2; n++ {
		var sum float64
		for _, g := range grad.Sample(n) {
			sum += g
		}
		if math.Abs(sum) > 1e-12 {
			t.Errorf("gradient row %d sums to %g, want 0", n, sum)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	b := NewBatch(1, Dims{C: 3, H: 1, W: 1})
	copy(b.Sample(0), []float64{1e4, -1e4, 0})
	loss, grad := softmaxCrossEntropy(b, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss not finite: %v", loss)
	}
	for _, g := range grad.Data {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatalf("gradient not finite: %v", grad.Data)
		}
	}
	if loss > 1e-6 {
		t.Errorf("confident correct prediction should have ~0 loss, got %g", loss)
	}
}

func TestArgmax(t *testing.T) {
	b := NewBatch(2, Dims{C: 3, H: 1, W: 1})
	copy(b.Sample(0), []float64{0.1, 0.9, 0.5})
	copy(b.Sample(1), []float64{2, -1, 1})
	got := []int{argmax(b.Sample(0)), argmax(b.Sample(1))}
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("Argmax = %v, want [1 0]", got)
	}
}

func TestNewNetworkShapeValidation(t *testing.T) {
	// Dense fan-in mismatch must be rejected at construction.
	_, err := NewNetwork(Dims{C: 5, H: 1, W: 1}, NewDense(4, 2))
	if err == nil {
		t.Error("expected error for Dense fan-in mismatch")
	}
	// Conv channel mismatch must be rejected.
	_, err = NewNetwork(Dims{C: 2, H: 8, W: 8}, NewConv2D(3, 4, 3, true))
	if err == nil {
		t.Error("expected error for Conv2D channel mismatch")
	}
	// Pool collapsing to nothing must be rejected.
	_, err = NewNetwork(Dims{C: 1, H: 1, W: 1}, NewConvReLUPool(1, 1, 1))
	if err == nil {
		t.Error("expected error for degenerate pooling")
	}
}

func TestModelFactoriesShapes(t *testing.T) {
	digits := NewDigitsCNN(12, 10)
	if got := digits.OutDims().Size(); got != 10 {
		t.Errorf("DigitsCNN outputs %d, want 10", got)
	}
	traffic := NewTrafficCNN(12, 12)
	if got := traffic.OutDims().Size(); got != 12 {
		t.Errorf("TrafficCNN outputs %d, want 12", got)
	}
	mlp := NewMLP(64, 32, 10)
	if got := mlp.OutDims().Size(); got != 10 {
		t.Errorf("MLP outputs %d, want 10", got)
	}
	if digits.NumParams() == 0 || traffic.NumParams() == 0 {
		t.Error("models must have parameters")
	}
}

func TestPredictMatchesEvaluate(t *testing.T) {
	r := rng.New(204)
	net := NewMLP(5, 4)
	net.Init(r)
	x, labels := randomBatch(r, 10, net.InDims, 4)
	preds := net.Predict(x)
	_, correct := net.Evaluate(x, labels)
	manual := 0
	for i, p := range preds {
		if p == labels[i] {
			manual++
		}
	}
	if manual != correct {
		t.Errorf("Predict-based correct=%d, Evaluate=%d", manual, correct)
	}
}
