package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
)

// FuzzNNKernels holds the ReLU and the fused ReLU-and-pool vector
// bodies to their oracles, whichever path the CPU selects: reluMask must
// leave exactly reluMaskGo's bits (it only copies y or writes +0, so
// NaN payloads included), and reluPool2 must give reluPool2Go's values
// and offsets over a row of any width and row stride, and unpool2
// unpool2Go's scatter of a row of pooled gradients. It holds the
// panel-free Conv2D to the im2col + GEMM (+ col2im) formulation it
// replaced (convMatchesPanels), and ConvReLUPool to the Conv2D →
// reluMaskGo → maxPoolNaive composition it replaced (fusedMatchesRef),
// output, argmax and gradients, through Backward and through the
// first-layer backwardParams. Both run with the fuzzed weights and once
// more with their non-finite values replaced, so the finite-weight
// case, where every bit must match, runs against specials in the input
// and the output gradient too. raw is read as little-endian float64s
// and cycled to fill the inputs; the shape bytes are folded into C ≤ 3,
// H ≤ 13, W ≤ 26 and kernel sizes 1–3, so whole 4-output blocks, masked
// partial ones and odd-size crops all run, and the conv runs
// same-padded (odd kernels) and valid.
func FuzzNNKernels(f *testing.F) {
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
		1, 1, -1, 0.5,
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0xfff8000000000123), // quiet NaN, sign and payload of its own
	}
	for n := 0; n <= 17; n++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = specials[(i+n)%len(specials)]
		}
		f.Add(floatBytes(v), uint8(n), uint8(n), uint8(2*n), uint8(1))
	}
	// NaN at each of the four window positions across a row of eight
	// 2×2 windows, plus ties and signed zeros.
	for pos := 0; pos < 4; pos++ {
		v := make([]float64, 2*16)
		for i := range v {
			v[i] = float64(i % 3)
		}
		for ox := 0; ox < 8; ox++ {
			v[(pos/2)*16+2*ox+pos%2] = math.NaN()
		}
		v[3], v[17] = 0, math.Copysign(0, -1)
		f.Add(floatBytes(v), uint8(0), uint8(1), uint8(16), uint8(1))
	}
	f.Fuzz(func(t *testing.T, raw []byte, c, h, w, size uint8) {
		v := make([]float64, len(raw)/8)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}

		y := make([]float64, len(v))
		for i := range y {
			y[i] = v[(i+1)%len(v)]
		}
		got, want := make([]float64, len(v)), make([]float64, len(v))
		reluMask(got, v, y)
		reluMaskGo(want, v, y)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("reluMask element %d of %d (x = %v): %#x, Go loop %#x",
					i, len(v), v[i], math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}

		k := int(size)%3 + 1
		d := Dims{C: int(c)%3 + 1, H: k + int(h)%(14-k), W: k + int(w)%(27-k)}
		x := NewBatch(2, d)
		for i := range x.Data {
			if len(v) == 0 {
				x.Data[i] = float64(i % 5)
			} else {
				x.Data[i] = v[i%len(v)]
			}
		}

		// One pooled row of W/2 outputs over two rows pw = W + slack
		// apart.
		pw := d.W + int(h)%3
		row := make([]float64, pw+d.W)
		for i := range row {
			row[i] = x.Data[i%len(x.Data)]
		}
		ow := d.W / 2
		gotY, wantY := make([]float64, ow), make([]float64, ow)
		gotAm, wantAm := make([]int, ow), make([]int, ow)
		reluPool2(gotY, gotAm, row, pw)
		reluPool2Go(wantY, wantAm, row, pw)
		if !slices.Equal(gotAm, wantAm) {
			t.Fatalf("reluPool2 over %d outputs, pw %d: offsets %v, Go loop %v", ow, pw, gotAm, wantAm)
		}
		sameBits(t, "reluPool2", gotY, wantY)

		// The same row's gradient scatter, over the pooled outputs and
		// offsets just computed and a gradient cycled from the input.
		g := make([]float64, ow)
		for i := range g {
			g[i] = row[(i+2)%len(row)]
		}
		gotW, wantW := slices.Clone(row), slices.Clone(row)
		unpool2(gotW, g, wantY, wantAm, pw)
		unpool2Go(wantW, g, wantY, wantAm, pw)
		sameBits(t, "unpool2", gotW, wantW)

		conv := NewConv2D(d.C, int(h)%4+1, k, k%2 == 1 && w%2 == 0)
		for i := range conv.params {
			conv.params[i] = x.Data[(i+7)%len(x.Data)]
		}
		for i := range conv.grads {
			conv.grads[i] = x.Data[(i+3)%len(x.Data)]
		}
		convMatchesPanels(t, conv, x)
		fused := NewConvReLUPool(d.C, conv.OutC, k|1)
		for i := range fused.params {
			fused.params[i] = x.Data[(i+7)%len(x.Data)]
			fused.grads[i] = x.Data[(i+3)%len(x.Data)]
		}
		fusedMatchesRef(t, fused, x)
		for _, c := range []*Conv2D{conv, &fused.Conv2D} {
			for i, p := range c.params {
				if math.IsInf(p, 0) || math.IsNaN(p) {
					c.params[i] = 1.5
				}
			}
		}
		convMatchesPanels(t, conv, x)
		fusedMatchesRef(t, fused, x)
	})
}

// fusedMatchesRef runs p forward and backward over x (the pooled
// gradient cycled from x) and checks the output, the argmax, the input
// gradient and the parameter gradients against refConvReLUPool's, bit
// for bit up to NaN payloads; then, from the same starting gradients,
// that the first-layer backwardParams leaves the same parameter
// gradients. A non-finite weight may make the input gradient NaN where
// the reference is not, as in convMatchesPanels.
func fusedMatchesRef(t *testing.T, p *ConvReLUPool, x *Batch) {
	t.Helper()
	out := p.OutputDims(x.Dims)
	if out.H == 0 || out.W == 0 {
		return
	}
	dy := NewBatch(x.N, out)
	for i := range dy.Data {
		dy.Data[i] = x.Data[(i+5)%len(x.Data)]
	}
	start := slices.Clone(p.grads)
	first := p.Clone().(*ConvReLUPool)
	copy(first.grads, start)
	wantY, wantDx, wantG := refConvReLUPool(p, x, dy)
	y := p.Forward(x).Clone()
	what := fmt.Sprintf("fused conv %d→%d k=%d over N=%d %s", p.InC, p.OutC, p.K, x.N, x.Dims)
	sameBits(t, what+" output", y.Data, wantY)
	conv := NewBatch(x.N, p.Conv2D.OutputDims(x.Dims))
	act := NewBatch(x.N, conv.Dims)
	copy(conv.Data, refConvOut(p, x))
	reluMaskGo(act.Data, conv.Data, conv.Data)
	if _, idx := maxPoolNaive(act, 2); !slices.Equal(argmaxIndex(p, x), idx) {
		t.Fatalf("%s argmax %v, reference %v", what, argmaxIndex(p, x), idx)
	}
	dx := p.Backward(dy)
	if slices.ContainsFunc(p.weights(), func(w float64) bool { return math.IsInf(w, 0) || math.IsNaN(w) }) {
		for i, g := range dx.Data {
			if math.IsNaN(g) {
				wantDx[i] = g
			}
		}
	}
	sameBits(t, what+" input gradient", dx.Data, wantDx)
	sameBits(t, what+" parameter gradients", p.grads, wantG)
	first.Forward(x)
	first.backwardParams(dy)
	sameBits(t, what+" first-layer parameter gradients", first.grads, wantG)
}

// refConvOut is the output of a Conv2D holding p's parameters over x.
func refConvOut(p *ConvReLUPool, x *Batch) []float64 {
	c := NewConv2D(p.InC, p.OutC, p.K, true)
	copy(c.params, p.params)
	return c.Forward(x).Data
}

// convMatchesPanels runs c forward and backward over x (the output
// gradient cycled from x, the parameter gradients accumulating onto
// their current values) and checks the output, the input gradient and
// the parameter gradients against convPanelRef, bit for bit up to NaN
// payloads. With an infinite or NaN weight the input gradient may also
// be NaN where the reference is not: a tap whose window lies on the
// padding adds ∞·0 there, a term col2im never adds (DESIGN.md §10).
func convMatchesPanels(t *testing.T, c *Conv2D, x *Batch) {
	t.Helper()
	out := c.OutputDims(x.Dims)
	dy := NewBatch(x.N, out)
	for i := range dy.Data {
		dy.Data[i] = x.Data[(i+5)%len(x.Data)]
	}
	wantY, wantDx, wantG := convPanelRef(c, x, dy)
	y := c.Forward(x).Clone()
	dx := c.Backward(dy)
	what := fmt.Sprintf("conv %d→%d k=%d pad=%v over N=%d %s", c.InC, c.OutC, c.K, c.Pad, x.N, x.Dims)
	sameBits(t, what+" output", y.Data, wantY)
	if slices.ContainsFunc(c.weights(), func(w float64) bool { return math.IsInf(w, 0) || math.IsNaN(w) }) {
		for i, g := range dx.Data {
			if math.IsNaN(g) {
				wantDx[i] = g
			}
		}
	}
	sameBits(t, what+" input gradient", dx.Data, wantDx)
	sameBits(t, what+" parameter gradients", c.grads, wantG)
}

// convPanelRef is the im2col formulation Conv2D replaced, with plain
// loops for its products: per sample, the output starts at the bias and
// adds W·col in patch-row order, skipping zero weights; the input
// gradient is col2im of the patch gradient Wᵀ·dY (each element from +0,
// output channels in order, zero weights skipped); the weight gradient
// continues each weight's chain from c.grads over dY·colᵀ in position
// order, and the bias gradient sums dY's rows onto c.grads.
func convPanelRef(c *Conv2D, x, dy *Batch) (y, dx, grads []float64) {
	out := dy.Dims
	kk, p := c.InC*c.K*c.K, out.H*out.W
	w := c.weights()
	y = make([]float64, x.N*out.Size())
	dx = make([]float64, x.N*x.Dims.Size())
	grads = slices.Clone(c.grads)
	col, dcol := make([]float64, kk*p), make([]float64, kk*p)
	for n := 0; n < x.N; n++ {
		im2col(x.Sample(n), col, x.Dims, c.K, c.padOffset(), out)
		ys, g := y[n*out.Size():(n+1)*out.Size()], dy.Sample(n)
		for oc := 0; oc < c.OutC; oc++ {
			for pos := 0; pos < p; pos++ {
				ys[oc*p+pos] = c.bias()[oc]
			}
			for ck := 0; ck < kk; ck++ {
				if wv := w[oc*kk+ck]; wv != 0 {
					for pos := 0; pos < p; pos++ {
						ys[oc*p+pos] += float64(wv * col[ck*p+pos])
					}
				}
			}
		}
		clear(dcol)
		for ck := 0; ck < kk; ck++ {
			for oc := 0; oc < c.OutC; oc++ {
				if wv := w[oc*kk+ck]; wv != 0 {
					for pos := 0; pos < p; pos++ {
						dcol[ck*p+pos] += float64(wv * g[oc*p+pos])
					}
				}
			}
		}
		col2im(dcol, dx[n*x.Dims.Size():(n+1)*x.Dims.Size()], x.Dims, c.K, c.padOffset(), out)
		for oc := 0; oc < c.OutC; oc++ {
			for ck := 0; ck < kk; ck++ {
				s := grads[oc*kk+ck]
				for pos := 0; pos < p; pos++ {
					s += float64(g[oc*p+pos] * col[ck*p+pos])
				}
				grads[oc*kk+ck] = s
			}
			s := grads[c.OutC*kk+oc]
			for _, gv := range g[oc*p : (oc+1)*p] {
				s += gv
			}
			grads[c.OutC*kk+oc] = s
		}
	}
	return y, dx, grads
}

// sameBits fails unless got and want agree bit for bit, except that a
// NaN need only meet a NaN.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d of %d = %v (%#x), reference %v (%#x)",
				what, i, len(want), g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

func floatBytes(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}
