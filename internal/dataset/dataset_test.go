package dataset

import (
	"math"
	"testing"

	"fuiov/internal/nn"
	"fuiov/internal/rng"
)

func TestSynthDigitsDeterministic(t *testing.T) {
	a := SynthDigits(DefaultDigits(100, 7))
	b := SynthDigits(DefaultDigits(100, 7))
	if a.Len() != 100 || b.Len() != 100 {
		t.Fatalf("len = %d/%d, want 100", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Y[i] != b.Y[i] {
			t.Fatalf("labels differ at %d", i)
		}
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				t.Fatalf("pixels differ at sample %d pixel %d", i, j)
			}
		}
	}
	c := SynthDigits(DefaultDigits(100, 8))
	diff := false
	for i := 0; i < a.Len() && !diff; i++ {
		for j := range a.X[i] {
			if a.X[i][j] != c.X[i][j] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestSynthValidates(t *testing.T) {
	for name, d := range map[string]*Dataset{
		"digits":  SynthDigits(DefaultDigits(200, 1)),
		"traffic": SynthTraffic(DefaultTraffic(200, 2)),
	} {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSynthCoversAllClasses(t *testing.T) {
	d := SynthDigits(DefaultDigits(1000, 3))
	for c, n := range classCounts(d) {
		if n == 0 {
			t.Errorf("class %d has no samples", c)
		}
	}
	tr := SynthTraffic(DefaultTraffic(1200, 4))
	for c, n := range classCounts(tr) {
		if n == 0 {
			t.Errorf("traffic class %d has no samples", c)
		}
	}
}

func TestSynthDigitsLearnable(t *testing.T) {
	// The task must be learnable well above chance by a small MLP —
	// otherwise the unlearning experiments cannot show recovery.
	d := SynthDigits(DefaultDigits(600, 5))
	r := rng.New(5)
	train, test := d.Split(r, 0.8)
	net := nn.NewMLP(d.Dims.Size(), 32, d.Classes)
	net.Init(r)
	for i := 0; i < 150; i++ {
		x, labels := train.SampleBatch(r, 64)
		net.LossAndGrad(x, labels)
		net.SGDStep(0.3)
	}
	x, labels := test.FullBatch()
	_, correct := net.Evaluate(x, labels)
	acc := float64(correct) / float64(test.Len())
	if acc < 0.7 {
		t.Fatalf("digits accuracy = %v, want >= 0.7 (chance = 0.1)", acc)
	}
}

func TestSynthTrafficLearnable(t *testing.T) {
	d := SynthTraffic(DefaultTraffic(800, 6))
	r := rng.New(6)
	train, test := d.Split(r, 0.8)
	net := nn.NewMLP(d.Dims.Size(), 32, d.Classes)
	net.Init(r)
	for i := 0; i < 200; i++ {
		x, labels := train.SampleBatch(r, 64)
		net.LossAndGrad(x, labels)
		net.SGDStep(0.3)
	}
	x, labels := test.FullBatch()
	_, correct := net.Evaluate(x, labels)
	acc := float64(correct) / float64(test.Len())
	if acc < 0.5 {
		t.Fatalf("traffic accuracy = %v, want >= 0.5 (chance = %v)", acc, 1.0/float64(d.Classes))
	}
}

func TestSubsetSharesFeaturesCopiesIndices(t *testing.T) {
	d := SynthDigits(DefaultDigits(10, 9))
	s := d.Subset([]int{0, 5})
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if &s.X[0][0] != &d.X[0][0] {
		t.Error("Subset should share feature storage")
	}
	s.Y[0] = 99 // must not affect parent
	if d.Y[0] == 99 {
		t.Error("Subset label slice aliases parent")
	}
}

func TestCloneDeepCopies(t *testing.T) {
	d := SynthDigits(DefaultDigits(5, 10))
	c := d.Clone()
	c.X[0][0] += 100
	if d.X[0][0] == c.X[0][0] {
		t.Error("Clone should deep-copy features")
	}
}

func TestBatchAssembly(t *testing.T) {
	d := SynthDigits(DefaultDigits(20, 11))
	b, labels := d.Batch([]int{3, 7})
	if b.N != 2 || len(labels) != 2 {
		t.Fatalf("batch size = %d/%d", b.N, len(labels))
	}
	for j, v := range d.X[3] {
		if b.Sample(0)[j] != v {
			t.Fatal("batch sample 0 mismatch")
		}
	}
	if labels[0] != d.Y[3] || labels[1] != d.Y[7] {
		t.Fatal("batch labels mismatch")
	}
}

func TestSampleBatchBounds(t *testing.T) {
	d := SynthDigits(DefaultDigits(8, 12))
	r := rng.New(1)
	b, labels := d.SampleBatch(r, 100)
	if b.N != 8 || len(labels) != 8 {
		t.Fatalf("oversized request should clamp to dataset size, got %d", b.N)
	}
}

func TestSplitDisjointExhaustive(t *testing.T) {
	d := SynthDigits(DefaultDigits(100, 13))
	train, test := d.Split(rng.New(2), 0.8)
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("split sizes = %d/%d", train.Len(), test.Len())
	}
}

func TestPartitionIID(t *testing.T) {
	d := SynthDigits(DefaultDigits(103, 14))
	shards, err := PartitionIID(d, rng.New(3), 10)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range shards {
		if s.Len() < 10 || s.Len() > 11 {
			t.Errorf("shard size %d outside [10,11]", s.Len())
		}
		total += s.Len()
	}
	if total != 103 {
		t.Errorf("total = %d, want 103", total)
	}
}

func TestPartitionIIDErrors(t *testing.T) {
	d := SynthDigits(DefaultDigits(5, 15))
	if _, err := PartitionIID(d, rng.New(1), 0); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := PartitionIID(d, rng.New(1), 10); err == nil {
		t.Error("more clients than samples should error")
	}
}

func TestPartitionDirichlet(t *testing.T) {
	d := SynthDigits(DefaultDigits(500, 16))
	shards, err := PartitionDirichlet(d, rng.New(4), 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, s := range shards {
		if s.Len() == 0 {
			t.Errorf("client %d is empty", i)
		}
		total += s.Len()
	}
	if total != 500 {
		t.Errorf("total = %d, want 500", total)
	}
}

func TestPartitionDirichletSkew(t *testing.T) {
	// Small alpha should produce more label-skewed shards than large
	// alpha, measured by mean max class share.
	d := SynthDigits(DefaultDigits(2000, 17))
	skew := func(alpha float64) float64 {
		shards, err := PartitionDirichlet(d, rng.New(5), 10, alpha)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, s := range shards {
			counts := classCounts(s)
			maxc := 0
			for _, c := range counts {
				if c > maxc {
					maxc = c
				}
			}
			total += float64(maxc) / float64(s.Len())
		}
		return total / float64(len(shards))
	}
	lo, hi := skew(100), skew(0.1)
	if hi <= lo {
		t.Errorf("alpha=0.1 skew (%v) should exceed alpha=100 skew (%v)", hi, lo)
	}
}

func TestPartitionDirichletErrors(t *testing.T) {
	d := SynthDigits(DefaultDigits(50, 18))
	if _, err := PartitionDirichlet(d, rng.New(1), 5, 0); err == nil {
		t.Error("alpha=0 should error")
	}
	if _, err := PartitionDirichlet(d, rng.New(1), 0, 1); err == nil {
		t.Error("n=0 should error")
	}
}

func TestPixelRangeReasonable(t *testing.T) {
	d := SynthDigits(DefaultDigits(100, 19))
	for i, x := range d.X {
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("sample %d pixel %d not finite: %v", i, j, v)
			}
			if v < -3 || v > 4 {
				t.Fatalf("sample %d pixel %d out of plausible range: %v", i, j, v)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := SynthDigits(DefaultDigits(10, 20))
	d.Y[3] = 99
	if err := d.Validate(); err == nil {
		t.Error("expected label-range error")
	}
	d = SynthDigits(DefaultDigits(10, 20))
	d.X[2] = d.X[2][:5]
	if err := d.Validate(); err == nil {
		t.Error("expected feature-size error")
	}
	d = SynthDigits(DefaultDigits(10, 20))
	d.Y = d.Y[:5]
	if err := d.Validate(); err == nil {
		t.Error("expected length mismatch error")
	}
}

// classCounts returns a histogram of d's labels.
func classCounts(d *Dataset) []int {
	counts := make([]int, d.Classes)
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}
