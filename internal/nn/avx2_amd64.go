package nn

// reluMaskAVX2 is reluMaskGo over whole 4-element blocks: len(x) is a
// multiple of 4 and dst and y are at least as long. VCMPPD with GT_OQ
// builds the x > 0 lane mask (false for NaN and for −0), VANDPD keeps
// y's bits where it is set and leaves +0 elsewhere — exactly the Go
// loop's branch, without one.
//
//go:noescape
func reluMaskAVX2(dst, x, y []float64)

// reluPool2AVX2 is reluPool2Go over any number of outputs: len(am) ≥
// len(y), and in holds the windows' two rows (the second starting at
// in[pw]) over at least 2·len(y) columns. Per block of four outputs it
// splits each row's eight columns into even and odd lanes
// (VUNPCKLPD/VUNPCKHPD, VPERMPD), applies the ReLU as VCMPPD GT_OQ
// against +0 and VANDPD, starts from the top-left value at offset 0,
// and folds in the other three window positions in the Go loop's order
// with a strict GT_OQ compare and a VBLENDVPD of value and offset: the
// first maximum wins. The last len(y) mod 4 outputs run once more
// through the same body with masked loads and stores (VMASKMOVPD), so
// nothing past the row's last window is read or written.
//
//go:noescape
func reluPool2AVX2(y []float64, am []int, in []float64, pw int)

// unpool2AVX2 is unpool2Go over any number of windows: len(y) and
// len(am) ≥ len(g), and w holds the windows' two rows (the second
// starting at w[gw]) over at least 2·len(g) columns. Per block of four
// windows it masks the gradients by VCMPPD GT_OQ of the pooled outputs
// against +0 after adding them to +0 (VADDPD, the Go loop's 0 + g),
// selects each window position by VPCMPEQQ of the offsets, and
// interleaves the four positions into the two rows' eight columns
// (VUNPCKLPD/VUNPCKHPD, VPERM2F128). The last len(g) mod 4 windows run
// once more with masked loads and stores (VMASKMOVPD).
//
//go:noescape
func unpool2AVX2(w []float64, g, y []float64, am []int, gw int)
