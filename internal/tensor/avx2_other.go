//go:build !amd64

package tensor

// The vector kernels exist only on amd64; cpuid.AVX2 is false
// elsewhere and keeps these unreachable.

func saxpyAVX2(orow []float64, av float64, brow []float64) {
	panic("tensor: no AVX2 kernels on this architecture")
}

func gemmNT4AVX2(dst []float64, ldd int, a []float64, lda, astride int, b []float64, boff []int, segs, seg, bstride int) {
	panic("tensor: no AVX2 kernels on this architecture")
}

func gemm4AVX2(dst []float64, doff []int, a []float64, lda, ak int, b []float64, boff []int, c0 []float64, nv int, sum bool) {
	panic("tensor: no AVX2 kernels on this architecture")
}
