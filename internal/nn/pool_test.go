package nn

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"fuiov/internal/rng"
)

// poolMatchesNaive runs a ConvReLUPool whose 1×1 convolution passes x
// through (weight 1 from each channel to itself, every other weight 0
// and so skipped, bias −0: −0 + 1·v is v for every v, a NaN quieted)
// forward and backward, and fails unless its pooled output and argmax
// equal reluMaskGo then maxPoolNaive's exactly, and its gradients
// equal refConvReLUPool's: pooling only copies values, so a value's
// bits must survive.
func poolMatchesNaive(t *testing.T, x *Batch) {
	t.Helper()
	c := x.Dims.C
	p := NewConvReLUPool(c, c, 1)
	for oc := 0; oc < c; oc++ {
		p.params[oc*c+oc] = 1
		p.bias()[oc] = math.Copysign(0, -1)
	}
	act := NewBatch(x.N, x.Dims)
	reluMaskGo(act.Data, x.Data, x.Data)
	want, wantIdx := maxPoolNaive(act, 2)
	dy := NewBatch(x.N, p.OutputDims(x.Dims))
	for i := range dy.Data {
		dy.Data[i] = x.Data[(i+3)%len(x.Data)]
	}
	_, wantDx, wantG := refConvReLUPool(p, x, dy)

	y := p.Forward(x)
	idx := argmaxIndex(p, x)
	what := fmt.Sprintf("N=%d %s", x.N, x.Dims)
	if len(y.Data) != len(want) {
		t.Fatalf("%s: %d outputs, reference %d", what, len(y.Data), len(want))
	}
	for i := range want {
		if math.Float64bits(y.Data[i]) != math.Float64bits(want[i]) || idx[i] != wantIdx[i] {
			t.Fatalf("%s: output %d = %v from %d, reference %v from %d",
				what, i, y.Data[i], idx[i], want[i], wantIdx[i])
		}
	}
	dx := p.Backward(dy)
	sameBits(t, what+" input gradient", dx.Data, wantDx)
	sameBits(t, what+" parameter gradients", p.grads, wantG)
}

// TestMaxPoolMatchesNaive holds ConvReLUPool's ReLU and 2×2 pool — the
// epilogue over the convolution's padded-width rows, its vector body
// with the masked last block, and the gradient scatter — to the
// direct-loop reference on the cases where a pooling kernel can
// silently differ: ties (the first maximum wins), a NaN at each window
// position, +0/−0 ties, odd heights and widths that crop, and widths
// whose output rows end in a partial block. size is the batch size.
func TestMaxPoolMatchesNaive(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	window := func(vals ...float64) *Batch {
		x := NewBatch(1, Dims{C: 1, H: 2, W: 2})
		copy(x.Data, vals)
		return x
	}
	cases := map[string]*Batch{
		"tie all":        window(1, 1, 1, 1),
		"tie right":      window(0, 2, 1, 2),
		"tie bottom":     window(0, 1, 2, 2),
		"zeros -0 first": window(negZero, 0, 0, negZero),
		"zeros +0 first": window(0, negZero, negZero, 0),
		"NaN top-left":   window(nan, 5, 6, 7),
		"NaN top-right":  window(1, nan, 6, 2),
		"NaN bot-left":   window(1, 0, nan, 2),
		"NaN bot-right":  window(1, 0, 3, nan),
		"all NaN":        window(nan, nan, nan, nan),
		"-Inf then NaN":  window(math.Inf(-1), nan, math.Inf(-1), -1),
	}
	for name, x := range cases {
		t.Run(name, func(t *testing.T) { poolMatchesNaive(t, x) })
	}

	// Every special value at every window position, across rows long
	// enough for whole vector blocks plus a partial one, with odd crops.
	specials := []float64{nan, math.Inf(1), math.Inf(-1), 0, negZero, 1, 1, -1, 0x1p-1074,
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000123)}
	r := rng.New(35)
	for _, d := range []Dims{{1, 2, 2}, {2, 5, 5}, {3, 4, 19}, {2, 7, 16}, {1, 3, 9}, {4, 12, 12}, {8, 6, 6}, {2, 9, 25}} {
		for _, size := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/size=%d", d, size), func(t *testing.T) {
				x := NewBatch(size, d)
				for i := range x.Data {
					switch r.IntN(3) {
					case 0:
						x.Data[i] = specials[r.IntN(len(specials))]
					case 1:
						x.Data[i] = float64(r.IntN(3)) // ties
					default:
						x.Data[i] = r.NormalScaled(0, 1)
					}
				}
				poolMatchesNaive(t, x)
			})
		}
	}
}

// refConvReLUPool is the three-layer composition ConvReLUPool
// replaced, on a Conv2D holding p's parameters and gradients: the
// convolution's forward pass, reluMaskGo, and maxPoolNaive's 2×2 pool;
// then the pool's backward pass (clear, then add each output's
// gradient at its argmax), reluMaskGo against the convolution's output,
// and the convolution's backward pass. It returns the pooled output,
// the input gradient and the parameter gradients.
func refConvReLUPool(p *ConvReLUPool, x, dy *Batch) (y, dx, grads []float64) {
	c := NewConv2D(p.InC, p.OutC, p.K, true)
	copy(c.params, p.params)
	copy(c.grads, p.grads)
	conv := c.Forward(x).Clone()
	act := NewBatch(conv.N, conv.Dims)
	reluMaskGo(act.Data, conv.Data, conv.Data)
	pooled, idx := maxPoolNaive(act, 2)
	dact := NewBatch(conv.N, conv.Dims)
	for n := 0; n < conv.N; n++ {
		d, g := dact.Sample(n), dy.Sample(n)
		for o := range g {
			d[idx[n*len(g)+o]] += g[o]
		}
	}
	dconv := NewBatch(conv.N, conv.Dims)
	reluMaskGo(dconv.Data, conv.Data, dact.Data)
	dx = c.Backward(dconv).Clone().Data
	return pooled, dx, slices.Clone(c.grads)
}

// argmaxIndex maps p's argmax entries, offsets within each window of
// the padded-width rows, to indices within each sample's convolution
// output: the form maxPoolNaive reports.
func argmaxIndex(p *ConvReLUPool, x *Batch) []int {
	out := p.OutputDims(x.Dims)
	h, w, pw := x.Dims.H, x.Dims.W, p.geo.pw
	idx := make([]int, len(p.argmax))
	for i, a := range p.argmax {
		o := i % out.Size()
		c, py, px := o/(out.H*out.W), o/out.W%out.H, o%out.W
		idx[i] = c*h*w + (2*py+a/pw)*w + 2*px + a%pw
	}
	return idx
}
