// Package tensor implements the dense linear algebra needed by the
// federated-unlearning numerics: vector arithmetic on []float64 and a
// small row-major Matrix type with multiplication, transposition,
// triangular extraction and LU-based solving.
//
// The package is deliberately minimal — it exists to support the
// compact L-BFGS Hessian approximation (internal/lbfgs) and the
// neural-network substrate (internal/nn), not to be a general BLAS.
// The matrix-product kernels (gemm.go) are nevertheless real kernels:
// cache-blocked, goroutine-parallel over output rows, with fixed
// per-element accumulation order so results are bit-identical at any
// parallelism level, and *Into variants that write through
// caller-owned scratch for allocation-free hot loops.
package tensor

import (
	"fmt"
	"math"
)

// Vec is a dense float64 vector. It is an alias-free convenience type:
// functions in this package never retain their arguments.
type Vec = []float64

// CloneVec returns a copy of v.
func CloneVec(v Vec) Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Sub returns a - b.
func Sub(a, b Vec) Vec {
	mustSameLen("Sub", a, b)
	out := make(Vec, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// SubInto sets dst = a - b without allocating. dst may alias a or b.
func SubInto(dst, a, b Vec) {
	mustSameLen("SubInto", a, b)
	mustSameLen("SubInto", dst, a)
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// AddInPlace sets dst = dst + src.
func AddInPlace(dst, src Vec) {
	mustSameLen("AddInPlace", dst, src)
	for i := range dst {
		dst[i] += src[i]
	}
}

// AxpyInPlace sets dst = dst + alpha*src (BLAS axpy) through saxpy:
// each element gets one rounded product and one sum, so the result is
// the scalar loop's on every path and every architecture.
func AxpyInPlace(dst Vec, alpha float64, src Vec) {
	mustSameLen("AxpyInPlace", dst, src)
	saxpy(dst, alpha, src)
}

// ScaleInPlace sets v = alpha * v.
func ScaleInPlace(alpha float64, v Vec) {
	for i := range v {
		v[i] *= alpha
	}
}

// Dot returns the inner product <a, b>.
func Dot(a, b Vec) float64 {
	mustSameLen("Dot", a, b)
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

// DotsInto sets out[k] = Dot(cols[k], v) for every column in one sweep
// over v per group of columns. Columns are taken four at a time (then
// two, then one) with one register accumulator each: every sum still
// runs in ascending index order, so out[k] is bit-identical to
// Dot(cols[k], v), but the groups' add chains and load streams overlap
// instead of running one dependent chain after another.
func DotsInto(out Vec, cols []Vec, v Vec) {
	if len(out) != len(cols) {
		panic(fmt.Sprintf("tensor.DotsInto: %d outputs for %d columns", len(out), len(cols)))
	}
	for _, c := range cols {
		mustSameLen("DotsInto", c, v)
	}
	k := 0
	for ; k+4 <= len(cols); k += 4 {
		c0, c1, c2, c3 := cols[k][:len(v)], cols[k+1][:len(v)], cols[k+2][:len(v)], cols[k+3][:len(v)]
		var s0, s1, s2, s3 float64
		for i, x := range v {
			s0 += float64(c0[i] * x)
			s1 += float64(c1[i] * x)
			s2 += float64(c2[i] * x)
			s3 += float64(c3[i] * x)
		}
		out[k], out[k+1], out[k+2], out[k+3] = s0, s1, s2, s3
	}
	if k+2 <= len(cols) {
		c0, c1 := cols[k][:len(v)], cols[k+1][:len(v)]
		var s0, s1 float64
		for i, x := range v {
			s0 += float64(c0[i] * x)
			s1 += float64(c1[i] * x)
		}
		out[k], out[k+1] = s0, s1
		k += 2
	}
	if k < len(cols) {
		out[k] = Dot(cols[k], v)
	}
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// AllFinite reports whether every element of v is finite (no NaN/Inf).
func AllFinite(v Vec) bool {
	for _, x := range v {
		if !Finite(x) {
			return false
		}
	}
	return true
}

// Finite reports whether x is neither NaN nor ±Inf: one integer
// compare on the exponent bits, cheap enough for a per-element test
// inside a fused sweep.
func Finite(x float64) bool {
	return math.Float64bits(x)&^signBit < infBits
}

// ClampAbs limits x to [−l, l] and reports whether the limit fired
// (1) or not (0). It is Copysign(l, x) where |x| > l and x otherwise —
// so ±Inf clamps to ±l, while NaN and values exactly at ±l pass
// through bit for bit — computed as a mask select on the bit pattern
// instead of a branch: the recovery estimates clip roughly one element
// in three, which no branch predictor follows. l must not be negative.
func ClampAbs(x, l float64) (float64, int) {
	b := math.Float64bits(x)
	var fired uint64
	if math.Abs(x) > l {
		fired = 1
	}
	mask := -fired
	b = b&^mask | (math.Float64bits(l)|b&signBit)&mask
	return math.Float64frombits(b), int(fired)
}

const (
	signBit = 1 << 63
	infBits = 0x7ff << 52
)

func mustSameLen(op string, a, b Vec) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor.%s: length mismatch %d vs %d", op, len(a), len(b)))
	}
}
