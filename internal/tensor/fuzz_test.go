package tensor

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// kernelSpecials are the inputs the vector bodies are most likely to
// get wrong: NaNs with different payloads (a signalling one among
// them), infinities, both zeros and subnormals.
var kernelSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
	1e-3, -1e-3, 0.25, -0.5, 3, 1e300, -1e300,
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0xfff8000000000123), // quiet NaN, sign and payload of its own
}

// FuzzTensorKernels holds the AVX2 bodies to the portable loops they
// replace, bit for bit, whichever path the CPU selects: saxpy against
// saxpyGo, and gemmNTRange against gemmNTGo over every column. raw is
// read as little-endian float64s and cycled to fill the operands; the
// shape bytes are folded into rows ≤ 19, k ≤ 159 and n ≤ 39 so the
// 4-row kernel, its k mod 4 tail, and the Go loop's leftover rows and
// columns all run. A NaN need only meet a NaN: Go leaves unspecified which
// operand's payload an operation propagates.
func FuzzTensorKernels(f *testing.F) {
	for n := 0; n <= 17; n++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = kernelSpecials[(i+n)%len(kernelSpecials)]
		}
		raw := floatBytes(v)
		for _, av := range []float64{0, math.Copysign(0, -1), 1.5, math.NaN(), math.Inf(-1), 0x1p-1070} {
			f.Add(raw, av, uint8(n), uint8(n+3), uint8(n), n%2 == 0)
		}
	}
	// The fleet_cnn shapes (rows, k, n): conv1 and conv2 weight
	// gradients and the dense forward pass, with specials sprinkled in;
	// then, all finite, one with a single-row remainder and k and
	// column tails.
	for _, sh := range []struct {
		rows, k, n uint8
		specials   bool
	}{{4, 144, 9, true}, {8, 36, 36, true}, {16, 72, 12, true}, {5, 37, 13, false}} {
		m, k, n := int(sh.rows), int(sh.k), int(sh.n)
		v := make([]float64, m*k+n*k+m*n)
		for i := range v {
			v[i] = math.Sin(float64(i)) * 4
			if sh.specials && i%61 == 0 {
				v[i] = kernelSpecials[i%len(kernelSpecials)]
			}
		}
		f.Add(floatBytes(v), 0.37, sh.rows, sh.k, sh.n, true)
		f.Add(floatBytes(v), -2.0, sh.rows, sh.k, sh.n, false)
	}
	f.Fuzz(func(t *testing.T, raw []byte, av float64, rows, k, n uint8, acc bool) {
		v := make([]float64, len(raw)/8)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		fill := func(dst []float64, off int) {
			for i := range dst {
				if len(v) == 0 {
					dst[i] = float64(i%7) - 3
				} else {
					dst[i] = v[(i+off)%len(v)]
				}
			}
		}

		orow := slices.Clone(v)
		brow := make([]float64, len(v)+int(n)%3) // saxpy runs over the shorter row
		fill(brow, 1)
		want := slices.Clone(orow)
		saxpyGo(want, av, brow[:len(want)])
		saxpy(orow, av, brow)
		sameBits(t, "saxpy", orow, want)

		m, kk, nn := int(rows)%20, int(k)%160, int(n)%40
		a, b := NewMatrix(m, kk), NewMatrix(nn, kk)
		fill(a.Data, 0)
		fill(b.Data, m*kk)
		got, ref := NewMatrix(m, nn), NewMatrix(m, nn)
		fill(got.Data, m*kk+nn*kk)
		copy(ref.Data, got.Data)
		gemmNTRange(got, a, b, acc, 0, m)
		gemmNTGo(ref, a, b, acc, 0, m, 0)
		sameBits(t, "gemmNTRange", got.Data, ref.Data)
	})
}

// sameBits fails unless got and want agree bit for bit, except that a
// NaN need only meet a NaN.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d of %d = %v (%#x), Go loop %v (%#x)",
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
