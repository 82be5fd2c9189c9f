package tensor

// saxpyAVX2 is saxpyGo over whole 4-element blocks: len(brow) is a
// multiple of 4 and len(orow) ≥ len(brow). Eight elements per step
// (one 4-block at the end when the count is odd): VMULPD forms av·brow,
// VADDPD adds orow — two roundings, the Go loop's, never a fused
// multiply-add.
//
//go:noescape
func saxpyAVX2(orow []float64, av float64, brow []float64)

// gemmNT4AVX2 is gemmNTGo for four output rows over columns [0, nv),
// nv a multiple of 4: dst and a start at the first of the rows (row
// strides n and k), b at row 0 (stride k). Each 4-column block keeps
// one YMM accumulator per output row, lane c holding output column
// j+c, started from dst (acc) or +0. Per four k-steps it loads the
// 4×4 tile of b rows j..j+3, transposes it in registers
// (VUNPCKLPD/VUNPCKHPD, VPERM2F128) so each vector holds one k-step's
// column, and for each k in turn adds the broadcast a element times
// that column to every row's accumulator: every lane sums its k terms
// in increasing order, VMULPD then VADDPD, exactly the Go loop's
// chain. Leftover k-steps (k mod 4) assemble their column from four
// scalar loads.
//
//go:noescape
func gemmNT4AVX2(dst, a, b []float64, n, k, nv int, acc bool)
