//go:build !amd64

package sign

// The vector kernels exist only on amd64; cpuid.AVX2 is false
// elsewhere and keeps these unreachable.

func compressAVX2(packed []byte, g []float64, delta, negDelta float64) {
	panic("sign: no AVX2 kernels on this architecture")
}

func accumulateAVX2(dst []float64, packed []byte, w float64) {
	panic("sign: no AVX2 kernels on this architecture")
}
