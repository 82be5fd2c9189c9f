package nn

import "testing"

func TestDimsHelpers(t *testing.T) {
	d := Dims{C: 3, H: 4, W: 5}
	if d.Size() != 60 {
		t.Errorf("Size = %d, want 60", d.Size())
	}
	if d.String() != "3x4x5" {
		t.Errorf("String = %q", d.String())
	}
	flat := d.Flat()
	if flat.C != 60 || flat.H != 1 || flat.W != 1 {
		t.Errorf("Flat = %+v", flat)
	}
	if flat.Size() != d.Size() {
		t.Error("Flat changes size")
	}
}

func TestBatchSampleViews(t *testing.T) {
	b := NewBatch(3, Dims{C: 2, H: 1, W: 1})
	for i := range b.Data {
		b.Data[i] = float64(i)
	}
	s1 := b.Sample(1)
	if s1[0] != 2 || s1[1] != 3 {
		t.Errorf("Sample(1) = %v", s1)
	}
	// Sample returns a live view.
	s1[0] = 99
	if b.Data[2] != 99 {
		t.Error("Sample should be a view, not a copy")
	}
}

func TestBatchClone(t *testing.T) {
	b := NewBatch(2, Dims{C: 3, H: 1, W: 1})
	b.Data[0] = 7
	c := b.Clone()
	c.Data[0] = 8
	if b.Data[0] != 7 {
		t.Error("Clone aliases the original")
	}
	if c.N != b.N || c.Dims != b.Dims {
		t.Error("Clone changed shape")
	}
}

func TestConstructorValidation(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"dense", func() { NewDense(0, 5) }},
		{"conv", func() { NewConv2D(0, 3, 3, true) }},
		{"convEvenPad", func() { NewConv2D(1, 1, 2, true) }},
		{"pool", func() { NewConvReLUPool(1, 1, 2) }},
		{"mlp", func() { NewMLP(5) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.f()
		})
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	layers := []Layer{NewDense(2, 2), NewConv2D(1, 1, 3, true), NewConvReLUPool(1, 1, 3), NewReLU(), NewTanh()}
	dy := NewBatch(1, Dims{C: 2, H: 1, W: 1})
	for _, l := range layers {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T: expected panic on Backward before Forward", l)
				}
			}()
			l.Backward(dy)
		}()
	}
}

func TestPoolCropsIndivisibleInput(t *testing.T) {
	// 5x5 input with pool 2 crops to 2x2 output; the 1×1 convolution
	// with weight 1 and bias 0 passes the non-negative input through.
	p := NewConvReLUPool(1, 1, 1)
	p.params[0] = 1
	out := p.OutputDims(Dims{C: 1, H: 5, W: 5})
	if out.H != 2 || out.W != 2 {
		t.Errorf("OutputDims = %+v", out)
	}
	x := NewBatch(1, Dims{C: 1, H: 5, W: 5})
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	y := p.Forward(x)
	if y.Dims.H != 2 || y.Dims.W != 2 {
		t.Errorf("forward dims = %+v", y.Dims)
	}
	// Max of the top-left 2x2 window {0,1,5,6} = 6.
	if y.Sample(0)[0] != 6 {
		t.Errorf("pooled[0] = %v, want 6", y.Sample(0)[0])
	}
}

func TestFlattenSharesData(t *testing.T) {
	f := NewFlatten()
	x := NewBatch(2, Dims{C: 2, H: 2, W: 2})
	y := f.Forward(x)
	if y.Dims.C != 8 || y.Dims.H != 1 {
		t.Errorf("flatten dims = %+v", y.Dims)
	}
	if &y.Data[0] != &x.Data[0] {
		t.Error("Flatten should reuse the backing array")
	}
	dy := NewBatch(2, y.Dims)
	dx := f.Backward(dy)
	if dx.Dims != x.Dims {
		t.Errorf("backward dims = %+v, want %+v", dx.Dims, x.Dims)
	}
}

func TestConvNoPaddingShrinks(t *testing.T) {
	c := NewConv2D(1, 2, 3, false)
	out := c.OutputDims(Dims{C: 1, H: 6, W: 6})
	if out.H != 4 || out.W != 4 || out.C != 2 {
		t.Errorf("OutputDims = %+v", out)
	}
}

func TestLayerCloneIsolation(t *testing.T) {
	for _, l := range []Layer{NewDense(3, 2), NewConv2D(1, 2, 3, true)} {
		p := l.Params()
		for i := range p {
			p[i] = float64(i + 1)
		}
		c := l.Clone()
		cp := c.Params()
		for i := range cp {
			if cp[i] != p[i] {
				t.Fatalf("%T: clone params differ", l)
			}
		}
		cp[0] = 999
		if l.Params()[0] == 999 {
			t.Fatalf("%T: clone aliases original", l)
		}
	}
}
