package nn

// reluMaskAVX2 is reluMaskGo over whole 4-element blocks: len(x) is a
// multiple of 4 and dst and y are at least as long. VCMPPD with GT_OQ
// builds the x > 0 lane mask (false for NaN and for −0), VANDPD keeps
// y's bits where it is set and leaves +0 elsewhere — exactly the Go
// loop's branch, without one.
//
//go:noescape
func reluMaskAVX2(dst, x, y []float64)

// maxPool2AVX2 is maxPool2Go over whole 4-output blocks: len(y) is a
// multiple of 4, len(am) ≥ len(y), in holds the window's two input
// rows (the second starting at in[iw]) over at least 2·len(y) columns,
// and base is the sample index of in[0]. Per block it splits the eight
// columns of each row into even and odd lanes (VUNPCKLPD/VUNPCKHPD,
// VPERMPD), starts from the top-left value and index, and folds in the
// other three window positions in the Go loop's order with a strict
// GT_OQ compare and a VBLENDVPD of both value and index: the first
// maximum wins, and a NaN neither replaces nor is replaced.
//
//go:noescape
func maxPool2AVX2(y []float64, am []int, in []float64, iw, base int)
