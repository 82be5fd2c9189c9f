package tensor

import (
	"fmt"

	"fuiov/internal/cpuid"
	"fuiov/internal/par"
)

// Cache-blocked, goroutine-parallel GEMM kernels.
//
// Every kernel partitions the OUTPUT rows into contiguous chunks, one
// chunk per worker, and accumulates each output element in a fixed
// k-increasing order. A given output element is therefore produced by
// exactly one goroutine with exactly one summation order, so results
// are bit-identical at any parallelism level — the property the
// seeded-run determinism suites (fl, unlearn, faults) rely on.
//
// The *Into variants write through caller-owned memory and allocate
// nothing, which is what lets the nn layers and the recovery loop run
// allocation-free in steady state. dst must not alias a or b.

const (
	// gemmBlockK bounds how many rows of b stay hot in cache while a
	// panel of output is accumulated.
	gemmBlockK = 128
	// gemmBlockJ bounds the width of the output panel accumulated per
	// pass, keeping the dst row segment plus the b panel L2-resident.
	gemmBlockJ = 256
)

func mustShape(op string, gotR, gotC, wantR, wantC int) {
	if gotR != wantR || gotC != wantC {
		panic(fmt.Sprintf("tensor.%s: dst is %dx%d, want %dx%d", op, gotR, gotC, wantR, wantC))
	}
}

// MatMulInto sets dst = a*b, reusing dst's backing array. dst must
// already have shape a.Rows × b.Cols and must not alias a or b.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor.MatMulInto: inner dimension mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("MatMulInto", dst.Rows, dst.Cols, a.Rows, b.Cols)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	gemmNN(dst, a, b)
}

// gemmNN accumulates dst += a*b. Per output element the term order is
// strictly k-increasing (blocks are visited in order and j-blocking does
// not touch it), so the result is independent of both blocking and row
// partitioning.
func gemmNN(dst, a, b *Matrix) {
	k, n := a.Cols, b.Cols
	w := par.Workers(a.Rows, 2*k*n)
	if w == 1 {
		gemmNNRange(dst, a, b, 0, a.Rows)
		return
	}
	// The loop body captures value copies of the headers: capturing the
	// incoming pointers would force every caller-built Matrix header to
	// the heap, even on the serial path.
	dd, aa, bb := *dst, *a, *b
	l := par.Loop{Body: func(lo, hi int) { gemmNNRange(&dd, &aa, &bb, lo, hi) }}
	l.Run(a.Rows, w)
}

// gemmNNRange accumulates output rows [lo, hi) of dst += a*b, in
// gemmBlockK × gemmBlockJ blocks so the b panel stays in cache.
func gemmNNRange(dst, a, b *Matrix, lo, hi int) {
	gemmBlocked(dst.Data[lo*dst.Cols:], dst.Cols, a.Data[lo*a.Cols:], a.Cols, 1, b.Data, hi-lo, a.Cols, false)
}

// gemmBlocked walks dst += op(a)·b over gemmBlockK × gemmBlockJ blocks
// for `rows` output rows: row i of dst starts at dst[i*ldd], its k-th a
// term is a[i*lda+kk*ak], and b is row-major with dst's width ldd.
// Every element still adds its terms in increasing k, so the blocking
// is invisible in the bits.
func gemmBlocked(dst []float64, ldd int, a []float64, lda, ak int, b []float64, rows, k int, zero bool) {
	n := ldd
	if zero {
		clear(dst[:rows*n])
	}
	var boff [gemmBlockK]int
	for kb := 0; kb < k; kb += gemmBlockK {
		tab := boff[:min(gemmBlockK, k-kb)]
		for t := range tab {
			tab[t] = (kb + t) * n
		}
		for jb := 0; jb < n; jb += gemmBlockJ {
			gemmRows(dst[jb:], ldd, nil, nil, a[kb*ak:], lda, ak, b[jb:], tab, rows, min(gemmBlockJ, n-jb), false)
		}
	}
}

// WindowMulBiasInto sets dst[doff[i]+j] = c0[i] + Σₖ a[i*lda+k*ak]·b[boff[k]+j]
// for i < len(doff) and j < n: a matrix product whose right operand's
// row k is the window of b starting at boff[k] (rows may overlap), and
// whose output rows sit anywhere in dst. Each element is one chain
// started from c0[i], adding its terms in increasing k and skipping a
// term whose a factor is ±0 — the plain products' order, so the bits
// are those of a GEMM onto rows filled with c0 over the gathered
// matrix.
func WindowMulBiasInto(dst []float64, doff []int, c0, a []float64, lda, ak int, b []float64, boff []int, n int) {
	if len(c0) != len(doff) {
		panic(fmt.Sprintf("tensor.WindowMulBiasInto: %d row starts for %d rows", len(c0), len(doff)))
	}
	gemmRows(dst, 0, doff, c0, a, lda, ak, b, boff, len(doff), n, false)
}

// WindowMulSumInto is WindowMulBiasInto with each element's product
// summed on its own, from +0, and only then added to dst: dst gathers
// one rounded partial product per call, the order a scatter-add of a
// separately computed product (the conv input gradient's Wᵀ·dY, then
// col2im) produces.
func WindowMulSumInto(dst []float64, doff []int, a []float64, lda, ak int, b []float64, boff []int, n int) {
	gemmRows(dst, 0, doff, nil, a, lda, ak, b, boff, len(doff), n, true)
}

// gemmRows runs the strided product over `rows` output rows — row i at
// dst[doff[i]] when doff is given, else at dst[i*ldd] — and n columns,
// each row's chains started from c0[i] when c0 is given, else from dst.
// With AVX2, each group of four rows sends its whole 4-column blocks to
// gemm4AVX2; gemmGo computes the remaining columns and the last
// rows mod 4 rows. Both add every element's terms in increasing k.
func gemmRows(dst []float64, ldd int, doff []int, c0, a []float64, lda, ak int, b []float64, boff []int, rows, n int, sum bool) {
	if rows == 0 || n == 0 {
		return
	}
	k := len(boff)
	rowOff := func(i int) int {
		if doff != nil {
			return doff[i]
		}
		return i * ldd
	}
	for i := 0; i < rows; i++ {
		if o := rowOff(i); o < 0 || o+n > len(dst) {
			panic(fmt.Sprintf("tensor: output row %d at %d+%d overruns %d", i, o, n, len(dst)))
		}
	}
	for kk, o := range boff {
		if o < 0 || o+n > len(b) {
			panic(fmt.Sprintf("tensor: b row %d at %d+%d overruns %d", kk, o, n, len(b)))
		}
	}
	// fill starts row r's columns [j0, n) from c0[r].
	fill := func(r, j0 int) {
		if c0 != nil {
			o := rowOff(r)
			row := dst[o+j0 : o+n]
			for j := range row {
				row[j] = c0[r]
			}
		}
	}
	if k == 0 {
		// No terms: a and b are never read, and a sum adds +0.
		for r := 0; r < rows; r++ {
			fill(r, 0)
			o := rowOff(r)
			gemmGo(dst[o:o+n], nil, 0, nil, nil, sum)
		}
		return
	}
	if lda < 0 || ak < 0 || (rows-1)*lda+(k-1)*ak >= len(a) {
		panic(fmt.Sprintf("tensor: a strides %d, %d over %dx%d overrun %d", lda, ak, rows, k, len(a)))
	}
	var d [4]int
	i, nv := 0, 0
	if cpuid.AVX2 {
		nv = n &^ 3
	}
	if nv > 0 {
		for ; i+4 <= rows; i += 4 {
			for r := range d {
				d[r] = rowOff(i + r)
			}
			var c4 []float64
			if c0 != nil {
				c4 = c0[i : i+4]
			}
			gemm4AVX2(dst, d[:], a[i*lda:], lda, ak, b, boff, c4, nv, sum)
		}
	}
	for r := 0; r < rows; r++ {
		j0 := 0
		if r < i {
			j0 = nv
		}
		if j0 < n {
			fill(r, j0)
			o := rowOff(r)
			gemmGo(dst[o+j0:o+n], a[r*lda:], ak, b[j0:], boff, sum)
		}
	}
}

// gemmGo is the portable kernel for one output row: drow[j] gets the
// terms a[kk*ak]·b[boff[kk]+j] in increasing kk, a ±0 a factor skipping
// its term, chained from drow[j] — or, with sum, from +0 with the total
// then added to drow[j]. The float64 conversion rounds each product
// before the add: without it the compiler may fuse the two into one FMA
// (it does on arm64), and the bits would differ from the vector body's.
func gemmGo(drow, a []float64, ak int, b []float64, boff []int, sum bool) {
	if sum {
		for j := range drow {
			s := 0.0
			for kk, o := range boff {
				if av := a[kk*ak]; av != 0 {
					s += float64(av * b[o+j])
				}
			}
			drow[j] += s
		}
		return
	}
	for kk, o := range boff {
		av := a[kk*ak]
		if av == 0 {
			continue
		}
		saxpyGo(drow, av, b[o:o+len(drow)])
	}
}

// saxpy computes orow[j] += av*brow[j] over the shorter of the two
// rows: whole 4-element blocks in saxpyAVX2 when the CPU has AVX2, the
// rest in saxpyGo. Every element gets one product and one sum, so the
// term order of each output element — and every bit of the result — is
// the same on either path.
func saxpy(orow []float64, av float64, brow []float64) {
	n := min(len(brow), len(orow))
	m := 0
	if cpuid.AVX2 {
		m = n &^ 3
		saxpyAVX2(orow[:m], av, brow[:m])
	}
	if m < n {
		saxpyGo(orow[m:n], av, brow[m:n])
	}
}

// saxpyGo is the portable saxpy, unrolled 4× over independent output
// elements (j), never across the k summation. The explicit float64
// conversion rounds the product before the add (see gemmGo).
func saxpyGo(orow []float64, av float64, brow []float64) {
	brow = brow[:len(orow)]
	j := 0
	for ; j+3 < len(orow); j += 4 {
		orow[j] += float64(av * brow[j])
		orow[j+1] += float64(av * brow[j+1])
		orow[j+2] += float64(av * brow[j+2])
		orow[j+3] += float64(av * brow[j+3])
	}
	for ; j < len(orow); j++ {
		orow[j] += float64(av * brow[j])
	}
}

// MatMulNTAddInto sets dst += a*bᵀ, accumulating from dst's current
// contents.
func MatMulNTAddInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor.MatMulNTAddInto: inner dimension mismatch %dx%d * (%dx%d)^T",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("MatMulNTAddInto", dst.Rows, dst.Cols, a.Rows, b.Rows)
	w := par.Workers(a.Rows, 2*a.Cols*b.Rows)
	if w == 1 {
		gemmNTRange(dst, a, b, 0, a.Rows)
		return
	}
	dd, aa, bb := *dst, *a, *b
	l := par.Loop{Body: func(lo, hi int) { gemmNTRange(&dd, &aa, &bb, lo, hi) }}
	l.Run(a.Rows, w)
}

// gemmNTRange computes output rows [lo, hi) of dst += a*bᵀ, gemmBlockJ
// columns (rows of b) at a time.
func gemmNTRange(dst, a, b *Matrix, lo, hi int) {
	k, n := a.Cols, b.Rows
	var boff [gemmBlockJ]int
	for jb := 0; jb < n; jb += gemmBlockJ {
		tab := boff[:min(gemmBlockJ, n-jb)]
		for t := range tab {
			tab[t] = (jb + t) * k
		}
		gemmNTRows(dst.Data[lo*n+jb:], n, a.Data[lo*k:], k, k, b.Data, tab, hi-lo, 1, k, k)
	}
}

// WindowMulNTAddInto accumulates dst[i*ldd+j] += Σₜ aᵢ[t]·bⱼ[t] for
// i < rows and j < len(boff): a*bᵀ where both operands' rows are
// gathered from segs segments of seg elements. Term t = s·seg + x of
// row i of a is a[i*lda + s·astride + x], and of row j of b it is
// b[boff[j] + s·bstride + x]. Each element is one chain started from
// dst, adding its segs·seg terms in increasing t with no term skipped:
// MatMulNTAddInto's order over the gathered matrices.
func WindowMulNTAddInto(dst []float64, ldd int, a []float64, lda, astride int, b []float64, boff []int, rows, segs, seg, bstride int) {
	gemmNTRows(dst, ldd, a, lda, astride, b, boff, rows, segs, seg, bstride)
}

// gemmNTRows computes dst[i*ldd+j] += Σₜ aᵢ[t]·bⱼ[t] over the segmented
// rows of a and b (see WindowMulNTAddInto). With AVX2, each group of
// four rows sends its whole 4-column blocks to gemmNT4AVX2, and its
// last n mod 4 columns as one more block whose missing columns repeat
// the last b row into a scratch tile; gemmNTGo computes the last
// rows mod 4 rows. Each output element is one t-increasing chain on
// either path, and a tile lane is an element's chain on its own.
func gemmNTRows(dst []float64, ldd int, a []float64, lda, astride int, b []float64, boff []int, rows, segs, seg, bstride int) {
	n, k := len(boff), segs*seg
	if rows == 0 || n == 0 || k == 0 {
		return
	}
	if (rows-1)*ldd+n > len(dst) || (rows-1)*lda+(segs-1)*astride+seg > len(a) || (segs > 1 && (bstride < 0 || astride < 0)) {
		panic(fmt.Sprintf("tensor: %d rows at strides %d, %d overrun dst %d or a %d", rows, ldd, lda, len(dst), len(a)))
	}
	span := (segs-1)*bstride + seg
	for j, o := range boff {
		if o < 0 || o+span > len(b) {
			panic(fmt.Sprintf("tensor: b row %d at %d+%d overruns %d", j, o, span, len(b)))
		}
	}
	i := 0
	if cpuid.AVX2 {
		nv := n &^ 3
		var tile [16]float64
		var tail [4]int
		for c := range tail {
			tail[c] = boff[min(nv+c, n-1)]
		}
		for ; i+4 <= rows; i += 4 {
			d := dst[i*ldd:]
			if nv > 0 {
				gemmNT4AVX2(d, ldd, a[i*lda:], lda, astride, b, boff[:nv], segs, seg, bstride)
			}
			if nv < n {
				for r := 0; r < 4; r++ {
					copy(tile[4*r:4*r+n-nv], d[r*ldd+nv:r*ldd+n])
				}
				gemmNT4AVX2(tile[:], 4, a[i*lda:], lda, astride, b, tail[:], segs, seg, bstride)
				for r := 0; r < 4; r++ {
					copy(d[r*ldd+nv:r*ldd+n], tile[4*r:4*r+n-nv])
				}
			}
		}
	}
	if i < rows {
		gemmNTGo(dst[i*ldd:], ldd, a[i*lda:], lda, astride, b, boff, rows-i, segs, seg, bstride)
	}
}

// gemmNTGo is the portable a*bᵀ kernel: for i < rows and j < len(boff),
// one serial chain per output element, started from dst[i*ldd+j],
// adding its terms a[i*lda + s·astride + x]·b[boff[j] + s·bstride + x]
// (t = s·seg + x) in increasing t. The float64 conversion keeps each
// product rounded on its own (see gemmGo).
func gemmNTGo(dst []float64, ldd int, a []float64, lda, astride int, b []float64, boff []int, rows, segs, seg, bstride int) {
	for i := 0; i < rows; i++ {
		orow := dst[i*ldd : i*ldd+len(boff)]
		for j, o := range boff {
			s := orow[j]
			for sg := 0; sg < segs; sg++ {
				arow := a[i*lda+sg*astride : i*lda+sg*astride+seg]
				brow := b[o+sg*bstride : o+sg*bstride+seg]
				for x, bv := range brow {
					s += float64(arow[x] * bv)
				}
			}
			orow[j] = s
		}
	}
}

// MatMulTNAddInto sets dst += aᵀ*b, accumulating from dst's current
// contents. The inner sum runs over a's rows in increasing order, which
// is what keeps batched gradient accumulation bit-identical to the
// per-sample loop it replaces.
func MatMulTNAddInto(dst, a, b *Matrix) {
	gemmTNChecked("MatMulTNAddInto", dst, a, b, true)
}

func gemmTNChecked(op string, dst, a, b *Matrix, acc bool) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor.%s: inner dimension mismatch (%dx%d)^T * %dx%d",
			op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape(op, dst.Rows, dst.Cols, a.Cols, b.Cols)
	w := par.Workers(a.Cols, 2*a.Rows*b.Cols)
	if w == 1 {
		gemmTNRange(dst, a, b, acc, 0, a.Cols)
		return
	}
	dd, aa, bb := *dst, *a, *b
	l := par.Loop{Body: func(lo, hi int) { gemmTNRange(&dd, &aa, &bb, acc, lo, hi) }}
	l.Run(a.Cols, w)
}

// gemmTNRange computes output rows [lo, hi) of dst = (dst +) aᵀ*b: row
// i's k-th a term is a[k][i], so a is walked with row stride 1 and k
// stride a.Cols. Without acc the rows start from +0.
func gemmTNRange(dst, a, b *Matrix, acc bool, lo, hi int) {
	gemmBlocked(dst.Data[lo*dst.Cols:], dst.Cols, a.Data[lo:], 1, a.Cols, b.Data, hi-lo, a.Rows, !acc)
}

// MulVecInto sets dst = m*v without allocating. dst must have length
// m.Rows and must not alias v.
func (m *Matrix) MulVecInto(dst, v Vec) {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("tensor.MulVecInto: dimension mismatch %dx%d * %d",
			m.Rows, m.Cols, len(v)))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("tensor.MulVecInto: dst length %d, want %d", len(dst), m.Rows))
	}
	w := par.Workers(m.Rows, 2*m.Cols)
	if w == 1 {
		m.mulVecRange(dst, v, 0, m.Rows)
		return
	}
	mm := *m
	l := par.Loop{Body: func(lo, hi int) { mm.mulVecRange(dst, v, lo, hi) }}
	l.Run(m.Rows, w)
}

// mulVecRange computes dst[lo:hi] of the matrix-vector product.
func (m *Matrix) mulVecRange(dst, v Vec, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, x := range row {
			s += x * v[j]
		}
		dst[i] = s
	}
}
