package metrics

import (
	"testing"

	"fuiov/internal/dataset"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
)

func TestAccuracyBounds(t *testing.T) {
	d := dataset.SynthDigits(dataset.DefaultDigits(100, 1))
	net := nn.NewMLP(d.Dims.Size(), 8, d.Classes)
	net.Init(rng.New(1))
	acc := Accuracy(net, d)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy out of [0,1]: %v", acc)
	}
	empty := d.Subset(nil)
	if got := Accuracy(net, empty); got != 0 {
		t.Errorf("empty dataset accuracy = %v, want 0", got)
	}
}

func TestAccuracyAtSetsParams(t *testing.T) {
	d := dataset.SynthDigits(dataset.DefaultDigits(200, 2))
	net := nn.NewMLP(d.Dims.Size(), 8, d.Classes)
	net.Init(rng.New(2))
	p1 := net.ParamVector()
	a1 := AccuracyAt(net, p1, d)
	// Degenerate all-zero params give a constant prediction.
	zero := make([]float64, len(p1))
	a0 := AccuracyAt(net, zero, d)
	if a1 == a0 {
		t.Logf("warning: accuracies equal (%v); acceptable but unusual", a1)
	}
	// The network must now hold the zero params.
	for i, v := range net.ParamVector() {
		if v != 0 {
			t.Fatalf("param %d = %v after AccuracyAt(zero)", i, v)
		}
	}
}

func TestModelDistance(t *testing.T) {
	d, err := ModelDistance([]float64{0, 3}, []float64{4, 0})
	if err != nil {
		t.Fatal(err)
	}
	if d != 5 {
		t.Errorf("distance = %v, want 5", d)
	}
	if _, err := ModelDistance([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("dimension mismatch should error")
	}
}
