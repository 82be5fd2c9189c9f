package tensor

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned by Solve and Inverse when the coefficient
// matrix is numerically singular.
var ErrSingular = errors.New("tensor: matrix is singular")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	// Data holds the elements row by row; len(Data) == Rows*Cols.
	Data []float64
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor.NewMatrix: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// ScaleMat returns alpha * m.
func ScaleMat(alpha float64, m *Matrix) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = alpha * m.Data[i]
	}
	return out
}

// Tril returns the strictly lower-triangular part of a square matrix
// (entries below the main diagonal; diagonal and above are zero). This
// is the `L = tril(A)` step of Algorithm 2 in the paper, which in the
// compact L-BFGS representation refers to the strict lower triangle.
func Tril(m *Matrix) *Matrix {
	mustSquare("Tril", m)
	out := NewMatrix(m.Rows, m.Cols)
	for i := 1; i < m.Rows; i++ {
		for j := 0; j < i; j++ {
			out.Data[i*m.Cols+j] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Diag returns a matrix holding only the main diagonal of a square
// matrix (the `D = diag(A)` step of Algorithm 2).
func Diag(m *Matrix) *Matrix {
	mustSquare("Diag", m)
	out := NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		out.Data[i*m.Cols+i] = m.Data[i*m.Cols+i]
	}
	return out
}

// Block assembles a 2x2 block matrix [[a, b], [c, d]]. Row/column
// dimensions must be conformal.
func Block(a, b, c, d *Matrix) *Matrix {
	if a.Rows != b.Rows || c.Rows != d.Rows || a.Cols != c.Cols || b.Cols != d.Cols {
		panic("tensor.Block: non-conformal blocks")
	}
	out := NewMatrix(a.Rows+c.Rows, a.Cols+b.Cols)
	for i := 0; i < a.Rows; i++ {
		copy(out.Data[i*out.Cols:], a.Data[i*a.Cols:(i+1)*a.Cols])
		copy(out.Data[i*out.Cols+a.Cols:], b.Data[i*b.Cols:(i+1)*b.Cols])
	}
	for i := 0; i < c.Rows; i++ {
		r := a.Rows + i
		copy(out.Data[r*out.Cols:], c.Data[i*c.Cols:(i+1)*c.Cols])
		copy(out.Data[r*out.Cols+c.Cols:], d.Data[i*d.Cols:(i+1)*d.Cols])
	}
	return out
}

// lu computes an in-place LU decomposition with partial pivoting of a
// copy of m, returning the packed factors and the pivot indices.
func lu(m *Matrix) (*Matrix, []int, error) {
	mustSquare("lu", m)
	n := m.Rows
	a := m.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivoting: pick the largest magnitude in column k.
		p, maxAbs := k, math.Abs(a.Data[k*n+k])
		for i := k + 1; i < n; i++ {
			if ab := math.Abs(a.Data[i*n+k]); ab > maxAbs {
				p, maxAbs = i, ab
			}
		}
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return nil, nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				a.Data[k*n+j], a.Data[p*n+j] = a.Data[p*n+j], a.Data[k*n+j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivot := a.Data[k*n+k]
		for i := k + 1; i < n; i++ {
			f := a.Data[i*n+k] / pivot
			a.Data[i*n+k] = f
			for j := k + 1; j < n; j++ {
				a.Data[i*n+j] -= f * a.Data[k*n+j]
			}
		}
	}
	return a, piv, nil
}

// Solve solves the linear system a*x = b for x, where b may have
// multiple right-hand-side columns. It returns ErrSingular when a has
// no unique solution.
func Solve(a, b *Matrix) (*Matrix, error) {
	if a.Rows != b.Rows {
		return nil, fmt.Errorf("tensor.Solve: shape mismatch %dx%d vs %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols)
	}
	f, piv, err := lu(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	x := NewMatrix(n, b.Cols)
	// Apply row permutation to b.
	for i := 0; i < n; i++ {
		copy(x.Data[i*b.Cols:(i+1)*b.Cols], b.Data[piv[i]*b.Cols:(piv[i]+1)*b.Cols])
	}
	// Forward substitution (unit lower-triangular L).
	for i := 1; i < n; i++ {
		for k := 0; k < i; k++ {
			l := f.Data[i*n+k]
			if l == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				x.Data[i*b.Cols+j] -= l * x.Data[k*b.Cols+j]
			}
		}
	}
	// Back substitution (upper-triangular U).
	for i := n - 1; i >= 0; i-- {
		for k := i + 1; k < n; k++ {
			u := f.Data[i*n+k]
			if u == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				x.Data[i*b.Cols+j] -= u * x.Data[k*b.Cols+j]
			}
		}
		d := f.Data[i*n+i]
		for j := 0; j < b.Cols; j++ {
			x.Data[i*b.Cols+j] /= d
		}
	}
	return x, nil
}

// Inverse returns the inverse of a square matrix, or ErrSingular.
func Inverse(a *Matrix) (*Matrix, error) {
	return Solve(a, Identity(a.Rows))
}

func mustSquare(op string, m *Matrix) {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("tensor.%s: matrix %dx%d is not square", op, m.Rows, m.Cols))
	}
}
