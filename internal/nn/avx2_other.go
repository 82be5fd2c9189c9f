//go:build !amd64

package nn

// The vector kernels exist only on amd64; cpuid.AVX2 is false
// elsewhere and keeps these unreachable.

func reluMaskAVX2(dst, x, y []float64) {
	panic("nn: no AVX2 kernels on this architecture")
}

func maxPool2AVX2(y []float64, am []int, in []float64, iw, base int) {
	panic("nn: no AVX2 kernels on this architecture")
}
