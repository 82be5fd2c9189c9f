package lbfgs

import (
	"math"

	"fuiov/internal/tensor"
)

// Dense materialises the full dim×dim approximation, O(dim²·s): the
// reference the tests hold HVP to.
func (a *Approx) Dense() (*tensor.Matrix, error) {
	out := tensor.NewMatrix(a.dim, a.dim)
	e := make([]float64, a.dim)
	for j := 0; j < a.dim; j++ {
		e[j] = 1
		col, err := a.HVP(e)
		if err != nil {
			return nil, err
		}
		e[j] = 0
		for i := 0; i < a.dim; i++ {
			out.Set(i, j, col[i])
		}
	}
	return out, nil
}

// matMul returns a*b.
func matMul(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.NewMatrix(a.Rows, b.Cols)
	tensor.MatMulInto(out, a, b)
	return out
}

// mulVec returns m*v.
func mulVec(m *tensor.Matrix, v []float64) []float64 {
	out := make([]float64, m.Rows)
	m.MulVecInto(out, v)
	return out
}

// equal reports whether a and b have the same length and every pair of
// elements differs by at most tol.
func equal(a, b []float64, tol float64) bool {
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

// equalMat is equal for two matrices of one shape.
func equalMat(a, b *tensor.Matrix, tol float64) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && equal(a.Data, b.Data, tol)
}

// maxAbs returns the largest absolute element of v (0 for empty v).
func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		m = max(m, math.Abs(x))
	}
	return m
}
