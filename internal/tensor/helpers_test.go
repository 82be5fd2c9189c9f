package tensor

import (
	"fmt"
	"math"
)

// Helpers the tests use as fixtures and references; no production
// code calls them.

// Add returns a + b. It panics if lengths differ, which indicates a
// programming error (vectors in this codebase always share the model
// dimension).
func Add(a, b Vec) Vec {
	mustSameLen("Add", a, b)
	out := make(Vec, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// NormInf returns the maximum absolute element of v (0 for empty v).
func NormInf(v Vec) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Equal reports whether a and b have the same length and every pair of
// elements differs by at most tol.
func Equal(a, b Vec, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// FromRows builds a matrix from a slice of equal-length rows, copying
// the data.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor.FromRows: ragged rows (%d vs %d)", len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// MulVec returns m*v for a column vector v of length m.Cols.
func (m *Matrix) MulVec(v Vec) Vec {
	out := make(Vec, m.Rows)
	m.MulVecInto(out, v)
	return out
}

// MulVecT returns mᵀ*v for a column vector v of length m.Rows, without
// materialising the transpose.
func (m *Matrix) MulVecT(v Vec) Vec {
	if m.Rows != len(v) {
		panic(fmt.Sprintf("tensor.MulVecT: dimension mismatch %dx%d^T * %d",
			m.Rows, m.Cols, len(v)))
	}
	out := make(Vec, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		vi := v[i]
		if vi == 0 {
			continue
		}
		for j, x := range row {
			out[j] += vi * x
		}
	}
	return out
}

// SubMat returns a - b elementwise.
func SubMat(a, b *Matrix) *Matrix {
	mustSameShape("SubMat", a, b)
	out := NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// EqualMat reports whether a and b share a shape and all elements agree
// within tol.
func EqualMat(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbs returns the largest absolute element in m (0 for empty).
func MaxAbs(m *Matrix) float64 {
	var out float64
	for _, x := range m.Data {
		if a := math.Abs(x); a > out {
			out = a
		}
	}
	return out
}

// MatMul returns a*b. It panics on an inner-dimension mismatch.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor.MatMul: inner dimension mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	gemmNN(out, a, b)
	return out
}

func mustSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor.%s: shape mismatch %dx%d vs %dx%d",
			op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// MatMulAddInto sets dst += a*b. Accumulation starts from dst's
// current contents (e.g. a bias row), in k-increasing term order.
func MatMulAddInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor.MatMulAddInto: inner dimension mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("MatMulAddInto", dst.Rows, dst.Cols, a.Rows, b.Cols)
	gemmNN(dst, a, b)
}

// MatMulTNInto sets dst = aᵀ*b (a stored row-major). dst must have
// shape a.Cols × b.Cols.
func MatMulTNInto(dst, a, b *Matrix) {
	gemmTNChecked("MatMulTNInto", dst, a, b, false)
}
