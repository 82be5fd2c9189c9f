package tensor

// saxpyAVX2 is saxpyGo over whole 4-element blocks: len(brow) is a
// multiple of 4 and len(orow) ≥ len(brow). Eight elements per step
// (one 4-block at the end when the count is odd): VMULPD forms av·brow,
// VADDPD adds orow — two roundings, the Go loop's, never a fused
// multiply-add.
//
//go:noescape
func saxpyAVX2(orow []float64, av float64, brow []float64)

// gemmNT4AVX2 is gemmNTGo for four output rows over the columns of
// boff, whose length is a multiple of 4: row r of dst starts at
// dst[r*ldd], row r of a at a[r*lda] and row j of b at b[boff[j]],
// each in segs segments of seg terms, astride apart in a and bstride
// apart in b. Each 4-column block
// keeps one YMM accumulator per output row, lane c holding output
// column j+c, started from dst. Per four k-steps of a segment it loads
// the 4×4 tile of b rows j..j+3, transposes it in registers
// (VUNPCKLPD/VUNPCKHPD, VPERM2F128) so each vector holds one k-step's
// column, and for each k in turn adds the broadcast a element times
// that column to every row's accumulator: every lane sums its k terms
// in increasing order, VMULPD then VADDPD, exactly the Go loop's
// chain. Leftover k-steps (seg mod 4) assemble their column from four
// scalar loads.
//
//go:noescape
func gemmNT4AVX2(dst []float64, ldd int, a []float64, lda, astride int, b []float64, boff []int, segs, seg, bstride int)

// gemm4AVX2 is gemmGo for the four output rows at dst[doff[0..3]] over
// columns [0, nv), nv a multiple of 4: row r's k-th a term is
// a[r*lda+k*ak], and row k of b starts at b[boff[k]]. It walks the
// columns in 8-wide blocks (one 4-wide block last when nv mod 8 is 4),
// and holds each block's 4×8 output tile in eight YMM accumulators
// across the whole k loop: per k it loads the b row segment once and,
// for each row whose a element is not ±0 (a scalar test and branch,
// Go's skip), adds the broadcast a element times it — VMULPD then
// VADDPD, one k-ascending chain per element, never a fused
// multiply-add. The accumulators start from c0[r] when c0 is not
// empty, else from dst, or from +0 with sum set, in which case the tile
// is added to dst at the end.
//
//go:noescape
func gemm4AVX2(dst []float64, doff []int, a []float64, lda, ak int, b []float64, boff []int, c0 []float64, nv int, sum bool)
