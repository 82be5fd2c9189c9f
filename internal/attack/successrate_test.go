package attack

import (
	"testing"

	"fuiov/internal/dataset"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
)

// successRateNaive is the original per-sample-allocation loop,
// retained as the reference implementation SuccessRate is checked
// against by TestSuccessRateBitIdentical.
func (a *Backdoor) successRateNaive(net *nn.Network, test *dataset.Dataset) float64 {
	var triggered, hits int
	for i := range test.X {
		if test.Y[i] == a.TargetClass {
			continue
		}
		x := make([]float64, len(test.X[i]))
		copy(x, test.X[i])
		a.Stamp(x, test.Dims)
		b := nn.NewBatch(1, test.Dims)
		copy(b.Sample(0), x)
		if net.Predict(b)[0] == a.TargetClass {
			hits++
		}
		triggered++
	}
	if triggered == 0 {
		return 0
	}
	return float64(hits) / float64(triggered)
}

// flipSuccessRateNaive is the original per-sample-allocation loop,
// retained as the reference FlipSuccessRate is checked against.
func flipSuccessRateNaive(net *nn.Network, test *dataset.Dataset, source, target int) float64 {
	var total, hits int
	for i := range test.X {
		if test.Y[i] != source {
			continue
		}
		b := nn.NewBatch(1, test.Dims)
		copy(b.Sample(0), test.X[i])
		if net.Predict(b)[0] == target {
			hits++
		}
		total++
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// trainedDigitsNet returns a lightly trained MLP so success-rate tests
// exercise non-trivial decision boundaries deterministically.
func trainedDigitsNet(t *testing.T, d *dataset.Dataset, seed uint64) *nn.Network {
	t.Helper()
	r := rng.New(seed)
	net := nn.NewMLP(d.Dims.Size(), 16, d.Classes)
	net.Init(r.Split(1))
	for i := 0; i < 30; i++ {
		x, labels := d.SampleBatch(r, 64)
		net.LossAndGrad(x, labels)
		net.SGDStep(0.2)
	}
	return net
}

// TestSuccessRateEdgeCases drives the attack success-rate metrics
// through the degenerate test sets a detector pipeline can hand them.
func TestSuccessRateEdgeCases(t *testing.T) {
	d := digitSet(t, 200, 21)
	net := trainedDigitsNet(t, d, 21)
	bd := DefaultBackdoor()

	onlyClass := func(class int) *dataset.Dataset {
		idx := make([]int, 0)
		for i, y := range d.Y {
			if y == class {
				idx = append(idx, i)
			}
		}
		return d.Subset(idx)
	}
	empty := d.Subset(nil)

	cases := []struct {
		name string
		set  *dataset.Dataset
		rate func(*dataset.Dataset) float64
		want float64 // -1 = any value in [0, 1]
	}{
		{"backdoor/empty set", empty, func(s *dataset.Dataset) float64 { return bd.SuccessRate(net, s) }, 0},
		{"backdoor/all target class", onlyClass(bd.TargetClass), func(s *dataset.Dataset) float64 { return bd.SuccessRate(net, s) }, 0},
		{"backdoor/mixed set in range", d, func(s *dataset.Dataset) float64 { return bd.SuccessRate(net, s) }, -1},
		{"flip/empty set", empty, func(s *dataset.Dataset) float64 { return FlipSuccessRate(net, s, 7, 1) }, 0},
		{"flip/no source class", onlyClass(2), func(s *dataset.Dataset) float64 { return FlipSuccessRate(net, s, 7, 1) }, 0},
		{"flip/source equals target", d, func(s *dataset.Dataset) float64 { return FlipSuccessRate(net, s, 7, 7) }, -1},
		{"flip/mixed set in range", d, func(s *dataset.Dataset) float64 { return FlipSuccessRate(net, s, 7, 1) }, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.rate(tc.set)
			if tc.want >= 0 && got != tc.want {
				t.Fatalf("rate = %v, want %v", got, tc.want)
			}
			if got < 0 || got > 1 {
				t.Fatalf("rate = %v outside [0, 1]", got)
			}
		})
	}
}

// TestTriggerDeterministic pins the trigger stamp: stamping the same
// sample twice writes identical bytes, stamping leaves the rest of the
// image untouched, and SuccessRate itself never mutates the test set.
func TestTriggerDeterministic(t *testing.T) {
	d := digitSet(t, 50, 22)
	bd := DefaultBackdoor()

	a := append([]float64(nil), d.X[0]...)
	b := append([]float64(nil), d.X[0]...)
	bd.Stamp(a, d.Dims)
	bd.Stamp(b, d.Dims)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pixel %d differs across identical stamps: %v vs %v", i, a[i], b[i])
		}
	}
	// Stamping an already-stamped image is idempotent.
	bd.Stamp(a, d.Dims)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pixel %d changed on re-stamp: %v vs %v", i, a[i], b[i])
		}
	}

	net := trainedDigitsNet(t, d, 22)
	before := d.Clone()
	bd.SuccessRate(net, d)
	FlipSuccessRate(net, d, 7, 1)
	for i := range d.X {
		if d.Y[i] != before.Y[i] {
			t.Fatalf("label %d mutated by success-rate evaluation", i)
		}
		for j := range d.X[i] {
			if d.X[i][j] != before.X[i][j] {
				t.Fatalf("sample %d pixel %d mutated by success-rate evaluation", i, j)
			}
		}
	}
}

// TestSuccessRateBitIdentical checks the reused-batch success-rate
// loops against the retained per-sample-allocation references with
// exact equality, across several seeds and both metrics.
func TestSuccessRateBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 23, 99} {
		d := digitSet(t, 300, seed)
		net := trainedDigitsNet(t, d, seed)
		bd := DefaultBackdoor()
		if got, want := bd.SuccessRate(net, d), bd.successRateNaive(net, d); got != want {
			t.Errorf("seed %d: SuccessRate = %v, naive reference = %v", seed, got, want)
		}
		if got, want := FlipSuccessRate(net, d, 7, 1), flipSuccessRateNaive(net, d, 7, 1); got != want {
			t.Errorf("seed %d: FlipSuccessRate = %v, naive reference = %v", seed, got, want)
		}
	}
}

// TestSuccessRateAllocs pins the reason for the reused batch: the hot
// evaluation loop must not allocate a fresh batch per sample.
func TestSuccessRateAllocs(t *testing.T) {
	d := digitSet(t, 400, 23)
	net := trainedDigitsNet(t, d, 23)
	bd := DefaultBackdoor()
	fast := testing.AllocsPerRun(3, func() { bd.SuccessRate(net, d) })
	naive := testing.AllocsPerRun(3, func() { bd.successRateNaive(net, d) })
	if fast >= naive {
		t.Errorf("reused-batch SuccessRate allocates %v/run, naive %v/run — batching buys nothing", fast, naive)
	}
}
