package nn

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzNNKernels holds the ReLU and MaxPool vector bodies to their
// oracles, whichever path the CPU selects: reluMask must leave exactly
// reluMaskGo's bits (it only copies y or writes +0, so NaN payloads
// included), and MaxPool2D.Forward must give maxPoolNaive's values and
// argmax indices. raw is read as little-endian float64s and cycled to
// fill the inputs; the shape bytes are folded into C ≤ 3, H ≤ 13,
// W ≤ 26 and window sizes 1–3, so whole 2×2 blocks, tails and crops
// all run.
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
		poolMatchesNaive(t, x, k)
	})
}

func floatBytes(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}
