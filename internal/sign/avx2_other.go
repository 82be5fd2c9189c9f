//go:build !amd64

package sign

// hasAVX2 is false off amd64: the portable loops run everything.
const hasAVX2 = false

// The vector kernels exist only on amd64; hasAVX2 keeps these
// unreachable.

func compressAVX2(packed []byte, g []float64, delta, negDelta float64) {
	panic("sign: no AVX2 kernels on this architecture")
}

func accumulateAVX2(dst []float64, packed []byte, w float64) {
	panic("sign: no AVX2 kernels on this architecture")
}
