package tensor

import (
	"fmt"
	"runtime"
	"sync"

	"fuiov/internal/cpuid"
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
	// gemmMinParallelFlops is the total multiply-add count below which
	// spawning goroutines costs more than it saves.
	gemmMinParallelFlops = 1 << 15
)

// serialRows reports whether a row-partitioned kernel should run on
// the calling goroutine: a single P, a single row, or too little work
// to amortise goroutine startup. Each kernel checks this BEFORE
// building the closure for parallelRows, so the serial path allocates
// nothing (a closure passed near a go statement always escapes).
func serialRows(rows, flopsPerRow int) bool {
	return runtime.GOMAXPROCS(0) <= 1 || rows <= 1 ||
		rows*flopsPerRow < gemmMinParallelFlops
}

// parallelRows splits [0, rows) into contiguous chunks, one goroutine
// each. fn must touch only output rows in [lo, hi), which makes the
// partitioning invisible in the results. Callers gate on serialRows
// first.
func parallelRows(rows int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func mustShape(op string, gotR, gotC, wantR, wantC int) {
	if gotR != wantR || gotC != wantC {
		panic(fmt.Sprintf("tensor.%s: dst is %dx%d, want %dx%d", op, gotR, gotC, wantR, wantC))
	}
}

// MatMul returns a*b. It panics on an inner-dimension mismatch.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor.MatMul: inner dimension mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	gemmNN(out, a, b)
	return out
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

// MatMulAddInto sets dst += a*b. Accumulation starts from dst's
// current contents (e.g. a bias row), in k-increasing term order.
func MatMulAddInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor.MatMulAddInto: inner dimension mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("MatMulAddInto", dst.Rows, dst.Cols, a.Rows, b.Cols)
	gemmNN(dst, a, b)
}

// gemmNN accumulates dst += a*b with k- and j-blocking. Per output
// element the term order is strictly k-increasing (blocks are visited
// in order and j-blocking does not touch it), so the result is
// independent of both blocking and row partitioning.
func gemmNN(dst, a, b *Matrix) {
	k, n := a.Cols, b.Cols
	if serialRows(a.Rows, 2*k*n) {
		gemmNNRange(dst, a, b, 0, a.Rows)
		return
	}
	// The closure captures value copies of the headers: capturing the
	// incoming pointers would force every caller-built Matrix header to
	// the heap, even on the serial path.
	dd, aa, bb := *dst, *a, *b
	parallelRows(a.Rows, func(lo, hi int) { gemmNNRange(&dd, &aa, &bb, lo, hi) })
}

// gemmNNRange accumulates output rows [lo, hi) of dst += a*b.
func gemmNNRange(dst, a, b *Matrix, lo, hi int) {
	k, n := a.Cols, b.Cols
	for kb := 0; kb < k; kb += gemmBlockK {
		kEnd := kb + gemmBlockK
		if kEnd > k {
			kEnd = k
		}
		for jb := 0; jb < n; jb += gemmBlockJ {
			jEnd := jb + gemmBlockJ
			if jEnd > n {
				jEnd = n
			}
			for i := lo; i < hi; i++ {
				arow := a.Data[i*k : (i+1)*k]
				orow := dst.Data[i*n+jb : i*n+jEnd]
				for kk := kb; kk < kEnd; kk++ {
					av := arow[kk]
					if av == 0 {
						continue
					}
					brow := b.Data[kk*n+jb : kk*n+jEnd]
					saxpy(orow, av, brow)
				}
			}
		}
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
// conversion rounds the product before the add: without it the
// compiler may fuse the two into one FMA (it does on arm64), and the
// bits would differ from the vector body's.
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

// MatMulNTInto sets dst = a*bᵀ (b stored row-major, not transposed in
// memory). dst must have shape a.Rows × b.Rows.
func MatMulNTInto(dst, a, b *Matrix) {
	gemmNTChecked("MatMulNTInto", dst, a, b, false)
}

// MatMulNTAddInto sets dst += a*bᵀ, accumulating from dst's current
// contents.
func MatMulNTAddInto(dst, a, b *Matrix) {
	gemmNTChecked("MatMulNTAddInto", dst, a, b, true)
}

func gemmNTChecked(op string, dst, a, b *Matrix, acc bool) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor.%s: inner dimension mismatch %dx%d * (%dx%d)^T",
			op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape(op, dst.Rows, dst.Cols, a.Rows, b.Rows)
	if serialRows(a.Rows, 2*a.Cols*b.Rows) {
		gemmNTRange(dst, a, b, acc, 0, a.Rows)
		return
	}
	dd, aa, bb := *dst, *a, *b
	parallelRows(a.Rows, func(lo, hi int) { gemmNTRange(&dd, &aa, &bb, acc, lo, hi) })
}

// gemmNTRange computes output rows [lo, hi) of dst = (dst +) a*bᵀ.
// With AVX2, each group of four rows sends its whole 4-column blocks
// to gemmNT4AVX2; gemmNTGo computes the remaining columns and the last
// hi−lo mod 4 rows. Each output element is one k-increasing chain on
// either path.
func gemmNTRange(dst, a, b *Matrix, acc bool, lo, hi int) {
	k, n := a.Cols, b.Rows
	i, nv := lo, 0
	if cpuid.AVX2 {
		nv = n &^ 3
	}
	if nv > 0 {
		for ; i+4 <= hi; i += 4 {
			gemmNT4AVX2(dst.Data[i*n:(i+3)*n+nv], a.Data[i*k:(i+4)*k], b.Data[:nv*k], n, k, nv, acc)
		}
	}
	gemmNTGo(dst, a, b, acc, lo, i, nv)
	gemmNTGo(dst, a, b, acc, i, hi, 0)
}

// gemmNTGo is the portable a*bᵀ kernel over output columns [j0, n) of
// rows [lo, hi): one serial chain per output element, started from dst
// (acc) or +0, adding its k terms in increasing order. The float64
// conversion keeps each product rounded on its own (see saxpyGo).
func gemmNTGo(dst, a, b *Matrix, acc bool, lo, hi, j0 int) {
	k, n := a.Cols, b.Rows
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := dst.Data[i*n : (i+1)*n]
		for j := j0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			s := 0.0
			if acc {
				s = orow[j]
			}
			for kk, av := range arow {
				s += float64(av * brow[kk])
			}
			orow[j] = s
		}
	}
}

// MatMulTNInto sets dst = aᵀ*b (a stored row-major). dst must have
// shape a.Cols × b.Cols.
func MatMulTNInto(dst, a, b *Matrix) {
	gemmTNChecked("MatMulTNInto", dst, a, b, false)
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
	if serialRows(a.Cols, 2*a.Rows*b.Cols) {
		gemmTNRange(dst, a, b, acc, 0, a.Cols)
		return
	}
	dd, aa, bb := *dst, *a, *b
	parallelRows(a.Cols, func(lo, hi int) { gemmTNRange(&dd, &aa, &bb, acc, lo, hi) })
}

// gemmTNRange computes output rows [lo, hi) of dst = (dst +) aᵀ*b.
// The inner sum runs over a's rows in increasing order per element.
func gemmTNRange(dst, a, b *Matrix, acc bool, lo, hi int) {
	k, n, ac := a.Rows, b.Cols, a.Cols
	for i := lo; i < hi; i++ {
		orow := dst.Data[i*n : (i+1)*n]
		if !acc {
			for j := range orow {
				orow[j] = 0
			}
		}
		for kk := 0; kk < k; kk++ {
			av := a.Data[kk*ac+i]
			if av == 0 {
				continue
			}
			saxpy(orow, av, b.Data[kk*n:(kk+1)*n])
		}
	}
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
	if serialRows(m.Rows, 2*m.Cols) {
		m.mulVecRange(dst, v, 0, m.Rows)
		return
	}
	mm := *m
	parallelRows(m.Rows, func(lo, hi int) { mm.mulVecRange(dst, v, lo, hi) })
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
