package tensor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"fuiov/internal/rng"
)

func randomMatrix(r *rng.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormalScaled(0, 1)
	}
	return m
}

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := MatMul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !EqualMat(got, want, 0) {
		t.Errorf("MatMul = %+v, want %+v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := rng.New(1)
	a := randomMatrix(r, 5, 5)
	if !EqualMat(MatMul(a, Identity(5)), a, 1e-12) {
		t.Error("A*I != A")
	}
	if !EqualMat(MatMul(Identity(5), a), a, 1e-12) {
		t.Error("I*A != A")
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(2)
	a := randomMatrix(r, 4, 7)
	if !EqualMat(a.T().T(), a, 0) {
		t.Error("(A^T)^T != A")
	}
	// (AB)^T = B^T A^T
	b := randomMatrix(r, 7, 3)
	lhs := MatMul(a, b).T()
	rhs := MatMul(b.T(), a.T())
	if !EqualMat(lhs, rhs, 1e-10) {
		t.Error("(AB)^T != B^T A^T")
	}
}

func TestMulVecAgainstMatMul(t *testing.T) {
	r := rng.New(3)
	a := randomMatrix(r, 6, 4)
	v := make(Vec, 4)
	for i := range v {
		v[i] = r.Normal()
	}
	vm := NewMatrix(4, 1)
	copy(vm.Data, v)
	want := MatMul(a, vm)
	got := a.MulVec(v)
	for i := range got {
		if math.Abs(got[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want.Data[i])
		}
	}
}

func TestMulVecT(t *testing.T) {
	r := rng.New(4)
	a := randomMatrix(r, 6, 4)
	v := make(Vec, 6)
	for i := range v {
		v[i] = r.Normal()
	}
	want := a.T().MulVec(v)
	got := a.MulVecT(v)
	if !Equal(got, want, 1e-12) {
		t.Errorf("MulVecT = %v, want %v", got, want)
	}
}

func TestTrilDiag(t *testing.T) {
	a := FromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
		{7, 8, 9},
	})
	l := Tril(a)
	wantL := FromRows([][]float64{
		{0, 0, 0},
		{4, 0, 0},
		{7, 8, 0},
	})
	if !EqualMat(l, wantL, 0) {
		t.Errorf("Tril = %+v", l)
	}
	d := Diag(a)
	wantD := FromRows([][]float64{
		{1, 0, 0},
		{0, 5, 0},
		{0, 0, 9},
	})
	if !EqualMat(d, wantD, 0) {
		t.Errorf("Diag = %+v", d)
	}
	// tril + diag + tril^T of (A+A^T)/2-style decomposition: for any
	// square A, A = strict_lower + diag + strict_upper where
	// strict_upper = Tril(A^T)^T.
	upper := Tril(a.T()).T()
	sum := NewMatrix(3, 3)
	for i := range sum.Data {
		sum.Data[i] = l.Data[i] + d.Data[i] + upper.Data[i]
	}
	if !EqualMat(sum, a, 0) {
		t.Errorf("tril+diag+triu != A: %+v", sum)
	}
}

func TestBlockAssembly(t *testing.T) {
	a := FromRows([][]float64{{1}})
	b := FromRows([][]float64{{2, 3}})
	c := FromRows([][]float64{{4}, {7}})
	d := FromRows([][]float64{{5, 6}, {8, 9}})
	got := Block(a, b, c, d)
	want := FromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
		{7, 8, 9},
	})
	if !EqualMat(got, want, 0) {
		t.Errorf("Block = %+v", got)
	}
}

func TestSolveKnown(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := FromRows([][]float64{{8}, {-11}, {-3}})
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(x.Data, Vec{2, 3, -1}, 1e-10) {
		t.Errorf("Solve = %v, want [2 3 -1]", x.Data)
	}
}

func TestSolveRandomRoundTrip(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.IntN(12)
		a := randomMatrix(r, n, n)
		// Diagonal boost keeps the random matrix well conditioned.
		for i := 0; i < n; i++ {
			a.Data[i*n+i] += float64(n)
		}
		want := make(Vec, n)
		for i := range want {
			want[i] = r.Normal()
		}
		b := &Matrix{Rows: n, Cols: 1, Data: a.MulVec(want)}
		got, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !Equal(got.Data, want, 1e-8) {
			t.Fatalf("trial %d: Solve = %v, want %v", trial, got.Data, want)
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{
		{1, 2},
		{2, 4},
	})
	_, err := Solve(a, FromRows([][]float64{{1}, {2}}))
	if !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestInverse(t *testing.T) {
	r := rng.New(6)
	a := randomMatrix(r, 6, 6)
	for i := 0; i < 6; i++ {
		a.Data[i*6+i] += 6
	}
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualMat(MatMul(a, inv), Identity(6), 1e-9) {
		t.Error("A * A^-1 != I")
	}
	if !EqualMat(MatMul(inv, a), Identity(6), 1e-9) {
		t.Error("A^-1 * A != I")
	}
}

func TestSolveMultiRHS(t *testing.T) {
	r := rng.New(7)
	a := randomMatrix(r, 5, 5)
	for i := 0; i < 5; i++ {
		a.Data[i*5+i] += 5
	}
	x := randomMatrix(r, 5, 3)
	b := MatMul(a, x)
	got, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualMat(got, x, 1e-8) {
		t.Errorf("multi-RHS solve mismatch")
	}
}

func TestScaleAddSubMat(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{4, 3}, {2, 1}})
	if got := SubMat(a, b); !EqualMat(got, FromRows([][]float64{{-3, -1}, {1, 3}}), 0) {
		t.Errorf("SubMat = %+v", got)
	}
	if got := ScaleMat(2, a); !EqualMat(got, FromRows([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Errorf("ScaleMat = %+v", got)
	}
}

func TestMaxAbs(t *testing.T) {
	if got := MaxAbs(FromRows([][]float64{{-9, 2}, {3, 1}})); got != 9 {
		t.Errorf("MaxAbs = %v, want 9", got)
	}
	if got := MaxAbs(NewMatrix(0, 0)); got != 0 {
		t.Errorf("MaxAbs(empty) = %v, want 0", got)
	}
}

func TestShapePanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"MatMul", func() { MatMul(NewMatrix(2, 3), NewMatrix(2, 3)) }},
		{"MulVec", func() { NewMatrix(2, 3).MulVec(Vec{1, 2}) }},
		{"Tril", func() { Tril(NewMatrix(2, 3)) }},
		{"Diag", func() { Diag(NewMatrix(2, 3)) }},
		{"FromRows", func() { FromRows([][]float64{{1, 2}, {3}}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.f()
		})
	}
}

// Property: matrix multiplication is associative on small random
// integer-valued matrices (exact in float64).
func TestMatMulAssociative(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(5)
		mk := func() *Matrix {
			m := NewMatrix(n, n)
			for i := range m.Data {
				m.Data[i] = float64(r.IntN(11) - 5)
			}
			return m
		}
		a, b, c := mk(), mk(), mk()
		return EqualMat(MatMul(MatMul(a, b), c), MatMul(a, MatMul(b, c)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
