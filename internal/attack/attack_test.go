package attack

import (
	"testing"

	"fuiov/internal/dataset"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
)

func digitSet(t *testing.T, n int, seed uint64) *dataset.Dataset {
	t.Helper()
	d := dataset.SynthDigits(dataset.DefaultDigits(n, seed))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLabelFlipAll(t *testing.T) {
	d := digitSet(t, 300, 1)
	a := &LabelFlip{SourceClass: 7, TargetClass: 1, Fraction: 1}
	p := a.Poison(d, rng.New(1))
	for i, y := range p.Y {
		if y == 7 {
			t.Fatalf("sample %d still labelled 7", i)
		}
		if d.Y[i] == 7 && y != 1 {
			t.Fatalf("sample %d flipped to %d, want 1", i, y)
		}
		if d.Y[i] != 7 && y != d.Y[i] {
			t.Fatalf("sample %d (label %d) should be untouched, got %d", i, d.Y[i], y)
		}
	}
	// Input untouched.
	found7 := false
	for _, y := range d.Y {
		if y == 7 {
			found7 = true
		}
	}
	if !found7 {
		t.Fatal("original dataset was mutated (or had no 7s)")
	}
}

func TestLabelFlipFraction(t *testing.T) {
	d := digitSet(t, 2000, 2)
	a := &LabelFlip{SourceClass: 3, TargetClass: 5, Fraction: 0.5}
	p := a.Poison(d, rng.New(7))
	var source, flipped int
	for i := range d.Y {
		if d.Y[i] != 3 {
			continue
		}
		source++
		if p.Y[i] == 5 {
			flipped++
		}
	}
	frac := float64(flipped) / float64(source)
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("flip fraction = %v, want ~0.5", frac)
	}
}

func TestLabelFlipName(t *testing.T) {
	a := &LabelFlip{SourceClass: 7, TargetClass: 1}
	if got := a.Name(); got != "labelflip(7->1)" {
		t.Errorf("Name = %q", got)
	}
}

func TestBackdoorStamp(t *testing.T) {
	d := digitSet(t, 10, 3)
	bd := DefaultBackdoor()
	if bd.TargetClass != 2 || bd.PatchSize != 3 {
		t.Fatalf("DefaultBackdoor = %+v, want the paper's 3×3 trigger targeting class 2", bd)
	}
	x := make([]float64, len(d.X[0]))
	copy(x, d.X[0])
	bd.Stamp(x, d.Dims)
	h, w := d.Dims.H, d.Dims.W
	for dy := 0; dy < 3; dy++ {
		for dx := 0; dx < 3; dx++ {
			if got := x[(h-1-dy)*w+(w-1-dx)]; got != 1 {
				t.Fatalf("trigger pixel (%d,%d) = %v, want 1", dy, dx, got)
			}
		}
	}
	// Pixels outside the patch unchanged.
	if x[0] != d.X[0][0] {
		t.Error("pixel outside the patch was modified")
	}
}

func TestBackdoorPoisonRelabels(t *testing.T) {
	d := digitSet(t, 500, 4)
	bd := &Backdoor{TargetClass: 2, PatchSize: 3, TriggerValue: 1, Fraction: 1}
	p := bd.Poison(d, rng.New(1))
	for i, y := range p.Y {
		if y != 2 {
			t.Fatalf("sample %d label %d, want 2", i, y)
		}
	}
	// Fraction < 1 poisons roughly that share.
	bd.Fraction = 0.4
	p = bd.Poison(d, rng.New(2))
	changed := 0
	for i := range p.Y {
		if p.Y[i] == 2 && d.Y[i] != 2 {
			changed++
		}
	}
	nonTarget := 0
	for _, y := range d.Y {
		if y != 2 {
			nonTarget++
		}
	}
	frac := float64(changed) / float64(nonTarget)
	if frac < 0.25 || frac > 0.55 {
		t.Errorf("poison fraction = %v, want ~0.4", frac)
	}
}

func TestBackdoorSuccessRateOnPoisonedModel(t *testing.T) {
	// Train one model on clean data and another with heavy backdoor
	// poisoning; the poisoned model must have much higher ASR.
	d := digitSet(t, 800, 5)
	r := rng.New(5)
	train, test := d.Split(r, 0.8)
	bd := &Backdoor{TargetClass: 2, PatchSize: 3, TriggerValue: 1, Fraction: 0.5}

	clean := nn.NewMLP(d.Dims.Size(), 32, d.Classes)
	clean.Init(r.Split(1))
	for i := 0; i < 150; i++ {
		x, labels := train.SampleBatch(r, 64)
		clean.LossAndGrad(x, labels)
		clean.SGDStep(0.3)
	}

	poisonedData := bd.Poison(train, r.Split(2))
	dirty := nn.NewMLP(d.Dims.Size(), 32, d.Classes)
	dirty.Init(r.Split(1))
	for i := 0; i < 150; i++ {
		x, labels := poisonedData.SampleBatch(r, 64)
		dirty.LossAndGrad(x, labels)
		dirty.SGDStep(0.3)
	}

	asrClean := bd.SuccessRate(clean, test)
	asrDirty := bd.SuccessRate(dirty, test)
	if asrDirty < 0.5 {
		t.Errorf("poisoned model ASR = %v, want >= 0.5", asrDirty)
	}
	if asrClean > 0.3 {
		t.Errorf("clean model ASR = %v, want < 0.3", asrClean)
	}
	if asrDirty <= asrClean {
		t.Errorf("poisoned ASR (%v) should exceed clean ASR (%v)", asrDirty, asrClean)
	}
}

func TestFlipSuccessRate(t *testing.T) {
	d := digitSet(t, 600, 6)
	r := rng.New(6)
	train, test := d.Split(r, 0.8)
	flip := &LabelFlip{SourceClass: 7, TargetClass: 1, Fraction: 1}

	poisoned := flip.Poison(train, r)
	dirty := nn.NewMLP(d.Dims.Size(), 32, d.Classes)
	dirty.Init(r.Split(3))
	for i := 0; i < 200; i++ {
		x, labels := poisoned.SampleBatch(r, 64)
		dirty.LossAndGrad(x, labels)
		dirty.SGDStep(0.3)
	}
	asr := FlipSuccessRate(dirty, test, 7, 1)
	if asr < 0.5 {
		t.Errorf("flip ASR on fully flipped training = %v, want >= 0.5", asr)
	}
}

func TestSuccessRateEmptyClassSafe(t *testing.T) {
	// A test set containing only the target class yields ASR 0, not a
	// division by zero.
	d := digitSet(t, 100, 7)
	only2 := make([]int, 0)
	for i, y := range d.Y {
		if y == 2 {
			only2 = append(only2, i)
		}
	}
	sub := d.Subset(only2)
	net := nn.NewMLP(d.Dims.Size(), 8, d.Classes)
	net.Init(rng.New(1))
	bd := DefaultBackdoor()
	if got := bd.SuccessRate(net, sub); got != 0 {
		t.Errorf("ASR = %v, want 0", got)
	}
	if got := FlipSuccessRate(net, sub, 7, 1); got != 0 {
		t.Errorf("flip ASR = %v, want 0", got)
	}
}
