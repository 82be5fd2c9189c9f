package nn

import (
	"fmt"
	"math"
	"testing"

	"fuiov/internal/rng"
)

// poolMatchesNaive runs one MaxPool2D forward pass over x and fails
// unless its output and argmax indices equal maxPoolNaive's exactly:
// pooling only copies values, so even a NaN's payload must survive.
func poolMatchesNaive(t *testing.T, x *Batch, size int) {
	t.Helper()
	p := NewMaxPool2D(size)
	y := p.Forward(x)
	want, wantIdx := maxPoolNaive(x, size)
	if len(y.Data) != len(want) {
		t.Fatalf("size %d over %s: %d outputs, reference %d", size, x.Dims, len(y.Data), len(want))
	}
	for i := range want {
		if math.Float64bits(y.Data[i]) != math.Float64bits(want[i]) || p.argmax[i] != wantIdx[i] {
			t.Fatalf("size %d over N=%d %s: output %d = %v from %d, reference %v from %d",
				size, x.N, x.Dims, i, y.Data[i], p.argmax[i], want[i], wantIdx[i])
		}
	}
}

// TestMaxPoolMatchesNaive holds MaxPool2D.Forward — the 2×2 path with
// its vector body and Go tail, and the generic loop for other sizes —
// to the direct-loop reference on the cases where a pooling kernel
// can silently differ: ties (the first maximum wins), a NaN at each
// window position, +0/−0 ties, odd heights and widths that crop, and
// widths whose output rows end in a partial block.
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
		t.Run(name, func(t *testing.T) { poolMatchesNaive(t, x, 2) })
	}

	// Every special value at every window position, across rows long
	// enough for whole vector blocks plus a tail, with odd crops.
	specials := []float64{nan, math.Inf(1), math.Inf(-1), 0, negZero, 1, 1, -1, 0x1p-1074,
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000123)}
	r := rng.New(35)
	for _, d := range []Dims{{1, 2, 2}, {2, 5, 5}, {3, 4, 19}, {2, 7, 16}, {1, 3, 9}, {4, 12, 12}, {8, 6, 6}, {2, 9, 25}} {
		for _, size := range []int{1, 2, 3} {
			if d.H < size || d.W < size {
				continue
			}
			t.Run(fmt.Sprintf("%s/size=%d", d, size), func(t *testing.T) {
				x := NewBatch(3, d)
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
				poolMatchesNaive(t, x, size)
			})
		}
	}
}
