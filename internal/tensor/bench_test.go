package tensor

import (
	"fmt"
	"testing"
)

// benchMatrix fills an m×n matrix with a deterministic dense pattern.
func benchMatrix(m, n int, seed float64) *Matrix {
	out := NewMatrix(m, n)
	for i := range out.Data {
		out.Data[i] = seed + float64(i%17)*0.25 - float64(i%5)
	}
	return out
}

// BenchmarkMatMul measures the square GEMM at the sizes the compute
// layer actually hits: ~64 for CI-scale layers, ~256 for the largest
// paper-scale products.
func BenchmarkMatMul(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := benchMatrix(n, n, 1)
			y := benchMatrix(n, n, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = MatMul(x, y)
			}
			b.SetBytes(int64(8 * n * n))
		})
	}
}

// BenchmarkMatMulNaive measures the unexported single-threaded
// reference triple loop, for the speedup comparison.
func BenchmarkMatMulNaive(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := benchMatrix(n, n, 1)
			y := benchMatrix(n, n, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = matMulNaive(x, y)
			}
			b.SetBytes(int64(8 * n * n))
		})
	}
}

// BenchmarkMatMulInto measures the allocation-free variant against a
// caller-owned destination.
func BenchmarkMatMulInto(b *testing.B) {
	const n = 128
	x := benchMatrix(n, n, 1)
	y := benchMatrix(n, n, 2)
	dst := NewMatrix(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

// BenchmarkMulVec measures the matrix-vector product used by the
// L-BFGS middle-matrix application.
func BenchmarkMulVec(b *testing.B) {
	const m, n = 512, 512
	x := benchMatrix(m, n, 3)
	v := make(Vec, n)
	for i := range v {
		v[i] = float64(i%7) - 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.MulVec(v)
	}
}
