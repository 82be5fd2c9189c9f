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
// saxpyGo; gemmRows (gemm4AVX2 on 4-row groups) against gemmGo row by
// row, laid out as a·b (NN), as aᵀ·b (TN, a walked with row stride 1)
// and over overlapping b windows with scattered output rows, in the
// chain-from-dst, sum-then-add and chain-from-c0 modes; and gemmNTRows
// against gemmNTGo, plain and with the rows of both operands gathered
// from strided segments, so the padded 4-column tail block runs for
// every n mod 4. raw is read as little-endian float64s and cycled to
// fill the operands; the shape bytes are folded into rows ≤ 40, k ≤ 159 and
// n ≤ 149 so the 8- and 4-column blocks, the k tails and the Go loop's
// leftover rows and columns all run. A NaN need only meet a NaN: Go
// leaves unspecified which operand's payload an operation propagates.
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
	// ±0 factors against ±Inf and NaN: the skipped terms must stay
	// skipped (0·Inf would be NaN), and a −0 chain start must survive.
	zinf := floatBytes([]float64{0, math.Inf(1), math.Copysign(0, -1), math.NaN(), math.Inf(-1), 2})
	for _, sh := range [][3]uint8{{4, 9, 16}, {9, 4, 12}, {5, 7, 13}} {
		f.Add(zinf, 0.0, sh[0], sh[1], sh[2], false)
		f.Add(zinf, 0.0, sh[0], sh[1], sh[2], true)
	}
	// The fleet_cnn shapes (rows, k, n): the conv forward products
	// (4×9·9×144, 8×36·36×36), their transposes (9×4·4×144,
	// 36×8·8×36), the conv weight gradients and the dense forward pass,
	// with specials sprinkled in; then, all finite, one with row,
	// column and k tails.
	for _, sh := range []struct {
		rows, k, n uint8
		specials   bool
	}{
		{4, 9, 144, true}, {8, 36, 36, true}, {9, 4, 144, true}, {36, 8, 36, true},
		{4, 144, 9, true}, {16, 72, 12, true}, {5, 37, 13, false},
		{8, 36, 37, true}, {4, 12, 10, false}, {4, 24, 11, true},
	} {
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
	f.Fuzz(func(t *testing.T, raw []byte, av float64, rows, k, n uint8, sum bool) {
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

		m, kk, nn := int(rows)%41, int(k)%160, int(n)%150
		a := make([]float64, m*kk)
		fill(a, 0)
		b := make([]float64, kk*nn)
		fill(b, m*kk)
		dst := make([]float64, m*nn)
		fill(dst, m*kk+kk*nn)

		// NN and TN: row r's k-th a term is a[r*kk+k] or a[k*m+r].
		tab := make([]int, kk)
		for i := range tab {
			tab[i] = i * nn
		}
		for _, l := range []struct {
			name    string
			lda, ak int
		}{{"NN", kk, 1}, {"TN", 1, m}} {
			got, ref := slices.Clone(dst), slices.Clone(dst)
			gemmRows(got, nn, nil, nil, a, l.lda, l.ak, b, tab, m, nn, sum)
			for r := 0; r < m; r++ {
				gemmGo(ref[r*nn:(r+1)*nn], a[min(r*l.lda, len(a)):], l.ak, b, tab, sum)
			}
			sameBits(t, "gemmRows "+l.name, got, ref)
		}

		// Overlapping b windows and output rows in reverse order.
		step := max(1, nn/3)
		win := make([]int, kk)
		for i := range win {
			win[i] = i * step
		}
		wb := make([]float64, kk*step+nn)
		fill(wb, 3)
		doff := make([]int, m)
		for r := range doff {
			doff[r] = (m - 1 - r) * nn
		}
		got, ref := slices.Clone(dst), slices.Clone(dst)
		gemmRows(got, 0, doff, nil, a, kk, 1, wb, win, m, nn, sum)
		for r := 0; r < m; r++ {
			gemmGo(ref[doff[r]:doff[r]+nn], a[min(r*kk, len(a)):], 1, wb, win, sum)
		}
		sameBits(t, "gemmRows windows", got, ref)

		// The same windows with each row's chains started from c0 (a
		// conv layer's bias): the reference fills the row first.
		c0 := make([]float64, m)
		fill(c0, 11)
		got, ref = slices.Clone(dst), slices.Clone(dst)
		gemmRows(got, 0, doff, c0, a, kk, 1, wb, win, m, nn, false)
		for r := 0; r < m; r++ {
			row := ref[doff[r] : doff[r]+nn]
			for j := range row {
				row[j] = c0[r]
			}
			gemmGo(row, a[min(r*kk, len(a)):], 1, wb, win, false)
		}
		sameBits(t, "gemmRows windows from c0", got, ref)

		// NT: dst (m×nn) += a (m×kk) · bᵀ, b rows kk apart; then with
		// each b row gathered from segments (a conv weight gradient's
		// output rows), bstride a gap of 0–2 past the segment.
		nt := make([]float64, nn*kk)
		fill(nt, m*kk+1)
		ntab := make([]int, nn)
		for j := range ntab {
			ntab[j] = j * kk
		}
		got, ref = slices.Clone(dst), slices.Clone(dst)
		gemmNTRows(got, nn, a, kk, kk, nt, ntab, m, 1, kk, kk)
		gemmNTGo(ref, nn, a, kk, kk, nt, ntab, m, 1, kk, kk)
		sameBits(t, "gemmNTRows", got, ref)

		// a's rows are strided too (a conv output gradient read in
		// place from its padded rows), astride a gap of 0–2 past the
		// segment.
		segs := 1 + int(n)%3
		seg, bstride, astride := kk/segs, kk/segs+int(rows)%3, kk/segs+int(k)%3
		sb := make([]float64, nn*segs*bstride+seg)
		fill(sb, 5)
		for j := range ntab {
			ntab[j] = j * segs * bstride
		}
		sa := make([]float64, m*segs*astride+seg)
		fill(sa, 2)
		got, ref = slices.Clone(dst), slices.Clone(dst)
		gemmNTRows(got, nn, sa, segs*astride, astride, sb, ntab, m, segs, seg, bstride)
		gemmNTGo(ref, nn, sa, segs*astride, astride, sb, ntab, m, segs, seg, bstride)
		sameBits(t, "gemmNTRows segments", got, ref)
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
