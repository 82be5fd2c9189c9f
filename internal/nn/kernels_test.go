package nn

import (
	"math"
	"runtime"
	"testing"

	"fuiov/internal/rng"
)

// The GEMM-based layers must agree with the naive reference loops
// (ref_test.go). Forward passes and parameter gradients share the reference's
// exact accumulation order, so they are compared bit-for-bit; the conv
// input gradient sums its channel contributions in a different
// (equally fixed) association, so it gets a tight relative tolerance.

const convDxTol = 1e-12

func bitEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d: got %v, want %v (diff %g)",
				what, i, got[i], want[i], got[i]-want[i])
		}
	}
}

func closeEqual(t *testing.T, what string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		diff := math.Abs(got[i] - want[i])
		if diff > tol*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("%s: element %d: got %v, want %v (rel %g)",
				what, i, got[i], want[i], diff)
		}
	}
}

// convCase runs one optimized-vs-naive conv comparison.
func convCase(t *testing.T, seed uint64, inC, outC, k int, pad bool, n, h, w int) {
	t.Helper()
	r := rng.New(seed)
	opt := NewConv2D(inC, outC, k, pad)
	opt.Init(r.Split(1))
	ref := opt.Clone().(*Conv2D)

	x := NewBatch(n, Dims{C: inC, H: h, W: w})
	for i := range x.Data {
		x.Data[i] = r.NormalScaled(0, 1)
	}

	yOpt := opt.Forward(x)
	yRef := ref.forwardNaive(x)
	bitEqual(t, "conv forward", yOpt.Data, yRef.Data)

	dy := NewBatch(n, yOpt.Dims)
	for i := range dy.Data {
		if r.IntN(5) == 0 {
			continue // exact zeros exercise the zero-skip paths
		}
		dy.Data[i] = r.NormalScaled(0, 1)
	}
	dxOpt := opt.Backward(dy)
	dxRef := ref.backwardNaive(dy)
	bitEqual(t, "conv weight/bias grads", opt.Grads(), ref.Grads())
	closeEqual(t, "conv input grad", dxOpt.Data, dxRef.Data, convDxTol)
}

func TestConvMatchesNaive(t *testing.T) {
	cases := []struct {
		name         string
		inC, outC, k int
		pad          bool
		n, h, w      int
		seed         uint64
	}{
		{"same3x3", 4, 8, 3, true, 32, 12, 12, 401},
		{"same5x5", 2, 3, 5, true, 5, 9, 7, 402},
		{"valid3x3", 3, 4, 3, false, 4, 8, 10, 403},
		{"1x1", 2, 6, 1, false, 3, 6, 6, 404},
		{"singleSample", 1, 2, 3, true, 1, 4, 4, 405},
		{"wideKernelValid", 2, 2, 4, false, 2, 7, 9, 406},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			convCase(t, tc.seed, tc.inC, tc.outC, tc.k, tc.pad, tc.n, tc.h, tc.w)
		})
	}
}

func TestDenseMatchesNaive(t *testing.T) {
	r := rng.New(410)
	for _, sh := range [][3]int{{7, 5, 4}, {288, 64, 32}, {1, 1, 1}, {33, 17, 9}} {
		in, out, n := sh[0], sh[1], sh[2]
		opt := NewDense(in, out)
		opt.Init(r.Split(uint64(in)))
		ref := opt.Clone().(*Dense)

		x := NewBatch(n, Dims{C: in, H: 1, W: 1})
		for i := range x.Data {
			x.Data[i] = r.NormalScaled(0, 1)
		}
		yOpt := opt.Forward(x)
		yRef := ref.forwardNaive(x)
		bitEqual(t, "dense forward", yOpt.Data, yRef.Data)

		dy := NewBatch(n, yOpt.Dims)
		for i := range dy.Data {
			if r.IntN(4) == 0 {
				continue
			}
			dy.Data[i] = r.NormalScaled(0, 1)
		}
		dxOpt := opt.Backward(dy)
		dxRef := ref.backwardNaive(dy)
		bitEqual(t, "dense grads", opt.Grads(), ref.Grads())
		bitEqual(t, "dense input grad", dxOpt.Data, dxRef.Data)
	}
}

// TestConvDeterministicAcrossParallelism requires the parallel
// per-sample dispatch to produce bit-identical activations and
// gradients at GOMAXPROCS=1 and at full parallelism.
func TestConvDeterministicAcrossParallelism(t *testing.T) {
	run := func() ([]float64, []float64, []float64) {
		r := rng.New(420)
		c := NewConv2D(4, 8, 3, true)
		c.Init(r.Split(1))
		x := NewBatch(16, Dims{C: 4, H: 12, W: 12})
		for i := range x.Data {
			x.Data[i] = r.NormalScaled(0, 1)
		}
		y := c.Forward(x)
		dy := y.Clone()
		dx := c.Backward(dy)
		return y.Data, dx.Data, c.Grads()
	}
	prev := runtime.GOMAXPROCS(1)
	y1, dx1, g1 := run()
	runtime.GOMAXPROCS(prev)
	y2, dx2, g2 := run()
	bitEqual(t, "forward across parallelism", y2, y1)
	bitEqual(t, "input grad across parallelism", dx2, dx1)
	bitEqual(t, "param grads across parallelism", g2, g1)
}

// TestConvScratchReuse checks that repeated calls reuse the layer
// scratch (no growth) and still produce identical results.
func TestConvScratchReuse(t *testing.T) {
	r := rng.New(430)
	c := NewConv2D(2, 3, 3, true)
	c.Init(r)
	x := NewBatch(4, Dims{C: 2, H: 6, W: 6})
	for i := range x.Data {
		x.Data[i] = r.NormalScaled(0, 1)
	}
	y1 := c.Forward(x).Clone()
	cap1 := cap(c.xpad)
	y2 := c.Forward(x)
	if cap(c.xpad) != cap1 {
		t.Fatalf("xpad scratch reallocated: cap %d -> %d", cap1, cap(c.xpad))
	}
	bitEqual(t, "repeat forward", y2.Data, y1.Data)
}

// TestIm2colCol2imAdjoint property: <im2col(x), u> == <x, col2im(u)>
// for random u — col2im is the exact adjoint of im2col.
func TestIm2colCol2imAdjoint(t *testing.T) {
	r := rng.New(440)
	dims := Dims{C: 3, H: 7, W: 6}
	out := Dims{C: 1, H: 5, W: 4}
	const k, off = 3, 0
	kk := dims.C * k * k
	p := out.H * out.W

	x := make([]float64, dims.Size())
	for i := range x {
		x[i] = r.NormalScaled(0, 1)
	}
	col := make([]float64, kk*p)
	im2col(x, col, dims, k, off, out)

	u := make([]float64, kk*p)
	for i := range u {
		u[i] = r.NormalScaled(0, 1)
	}
	back := make([]float64, dims.Size())
	col2im(u, back, dims, k, off, out)

	var lhs, rhs float64
	for i := range col {
		lhs += col[i] * u[i]
	}
	for i := range x {
		rhs += x[i] * back[i]
	}
	if math.Abs(lhs-rhs) > 1e-9*math.Max(1, math.Abs(lhs)) {
		t.Fatalf("adjoint mismatch: <im2col(x),u>=%g, <x,col2im(u)>=%g", lhs, rhs)
	}
}

// im2col unpacks one sample into patch-matrix form (the layout Conv2D
// used before it read windows of a padded copy, kept as the oracle the
// panel-free kernels are held to): col[ck*p+pos]
// holds input element (ic, oy+ky-off, ox+kx-off) for patch row
// ck = (ic*K+ky)*K+kx and output position pos = oy*ow+ox, with zeros
// where the receptive field hangs over the padding border. Rows are
// ordered exactly like the convolution weights, so W·col is the
// convolution with the same k-accumulation order as the direct loop.
func im2col(in, col []float64, dims Dims, k, off int, out Dims) {
	ih, iw := dims.H, dims.W
	oh, ow := out.H, out.W
	p := oh * ow
	ck := 0
	for ic := 0; ic < dims.C; ic++ {
		inBase := ic * ih * iw
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := col[ck*p : (ck+1)*p]
				// Valid ox range keeps sx = ox+kx-off inside [0, iw).
				oxLo, oxHi := 0, ow
				if lo := off - kx; lo > oxLo {
					oxLo = lo
				}
				if hi := iw + off - kx; hi < oxHi {
					oxHi = hi
				}
				for oy := 0; oy < oh; oy++ {
					seg := row[oy*ow : (oy+1)*ow]
					sy := oy + ky - off
					if sy < 0 || sy >= ih || oxLo >= oxHi {
						for i := range seg {
							seg[i] = 0
						}
						continue
					}
					for i := 0; i < oxLo; i++ {
						seg[i] = 0
					}
					src := in[inBase+sy*iw+oxLo+kx-off : inBase+sy*iw+oxHi+kx-off]
					copy(seg[oxLo:oxHi], src)
					for i := oxHi; i < ow; i++ {
						seg[i] = 0
					}
				}
				ck++
			}
		}
	}
}

// col2im scatter-adds a patch-matrix gradient back onto the input
// layout: the exact adjoint of im2col, whose patch
// row ck = (ic*K+ky)*K+kx holds input element (ic, oy+ky-off,
// ox+kx-off) at output position oy*ow+ox. din must be pre-zeroed (or
// hold a gradient to accumulate onto); each of its elements gets its
// patch-gradient terms in increasing ck.
func col2im(dcol, din []float64, dims Dims, k, off int, out Dims) {
	ih, iw := dims.H, dims.W
	oh, ow := out.H, out.W
	p := oh * ow
	ck := 0
	for ic := 0; ic < dims.C; ic++ {
		inBase := ic * ih * iw
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := dcol[ck*p : (ck+1)*p]
				oxLo, oxHi := 0, ow
				if lo := off - kx; lo > oxLo {
					oxLo = lo
				}
				if hi := iw + off - kx; hi < oxHi {
					oxHi = hi
				}
				for oy := 0; oy < oh; oy++ {
					sy := oy + ky - off
					if sy < 0 || sy >= ih || oxLo >= oxHi {
						continue
					}
					seg := row[oy*ow : (oy+1)*ow]
					base := inBase + sy*iw + kx - off
					for ox := oxLo; ox < oxHi; ox++ {
						din[base+ox] += seg[ox]
					}
				}
				ck++
			}
		}
	}
}
