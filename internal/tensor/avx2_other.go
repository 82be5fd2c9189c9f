//go:build !amd64

package tensor

// The vector kernels exist only on amd64; cpuid.AVX2 is false
// elsewhere and keeps these unreachable.

func saxpyAVX2(orow []float64, av float64, brow []float64) {
	panic("tensor: no AVX2 kernels on this architecture")
}

func gemmNT4AVX2(dst, a, b []float64, n, k, nv int, acc bool) {
	panic("tensor: no AVX2 kernels on this architecture")
}
