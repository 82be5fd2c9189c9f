package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"fuiov/internal/rng"
)

// matMulNaive is the original single-threaded triple loop, the
// reference the kernel equivalence tests compare against.
func matMulNaive(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor.MatMul: inner dimension mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// fillNaN poisons a destination so a kernel that skips an element
// shows up as a NaN mismatch.
func fillNaN(v Vec) {
	for i := range v {
		v[i] = math.NaN()
	}
}

// randMatrix fills an m×n matrix with seeded normal noise, with a few
// exact zeros mixed in so the zero-skip paths are exercised.
func randMatrix(r *rng.RNG, m, n int) *Matrix {
	out := NewMatrix(m, n)
	for i := range out.Data {
		if r.IntN(13) == 0 {
			continue // leave an exact zero
		}
		out.Data[i] = r.NormalScaled(0, 1)
	}
	return out
}

// TestMatMulMatchesNaive asserts the blocked parallel kernel is
// bit-identical to the reference triple loop: both accumulate each
// output element in the same k-increasing order, so no tolerance is
// needed.
func TestMatMulMatchesNaive(t *testing.T) {
	r := rng.New(301)
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {16, 16, 16},
		{33, 65, 29}, {64, 128, 96}, {130, 257, 70}, {300, 41, 300},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := randMatrix(r, m, k)
			b := randMatrix(r, k, n)
			want := matMulNaive(a, b)
			got := MatMul(a, b)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("element %d: got %v, want %v (diff %g)",
						i, got.Data[i], want.Data[i], got.Data[i]-want.Data[i])
				}
			}
		})
	}
}

// TestMatMulDeterministicAcrossParallelism runs the same product at
// GOMAXPROCS=1 and at full parallelism and requires bit-identical
// results. Under -race this also exercises the worker partitioning for
// data races.
func TestMatMulDeterministicAcrossParallelism(t *testing.T) {
	r := rng.New(302)
	a := randMatrix(r, 257, 129)
	b := randMatrix(r, 129, 193)

	prev := runtime.GOMAXPROCS(1)
	serial := MatMul(a, b)
	runtime.GOMAXPROCS(prev)

	parallel := MatMul(a, b)
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("element %d differs across parallelism: %v vs %v",
				i, serial.Data[i], parallel.Data[i])
		}
	}
}

func TestMatMulIntoMatchesMatMul(t *testing.T) {
	r := rng.New(303)
	a := randMatrix(r, 45, 67)
	b := randMatrix(r, 67, 23)
	want := MatMul(a, b)
	dst := NewMatrix(45, 23)
	fillNaN(dst.Data) // Into must fully overwrite
	MatMulInto(dst, a, b)
	for i := range want.Data {
		if dst.Data[i] != want.Data[i] {
			t.Fatalf("element %d: got %v, want %v", i, dst.Data[i], want.Data[i])
		}
	}
}

func TestMatMulAddIntoAccumulates(t *testing.T) {
	r := rng.New(304)
	a := randMatrix(r, 12, 34)
	b := randMatrix(r, 34, 18)
	base := randMatrix(r, 12, 18)
	dst := base.Clone()
	MatMulAddInto(dst, a, b)
	prod := MatMul(a, b)
	for i := range dst.Data {
		// The kernel accumulates term-by-term onto the base value, so
		// compare against the same association: base, then each product
		// contribution. Recompute via a second accumulate onto zero.
		want := base.Data[i] + prod.Data[i]
		if math.Abs(dst.Data[i]-want) > 1e-12*math.Max(1, math.Abs(want)) {
			t.Fatalf("element %d: got %v, want %v", i, dst.Data[i], want)
		}
	}
}

// TestMatMulNTMatchesExplicitTranspose checks a*bᵀ against MatMul with
// a materialised transpose.
func TestMatMulNTMatchesExplicitTranspose(t *testing.T) {
	r := rng.New(305)
	a := randMatrix(r, 31, 47)
	b := randMatrix(r, 22, 47)
	dst := NewMatrix(31, 22)
	MatMulNTInto(dst, a, b)
	want := MatMul(a, b.T())
	for i := range want.Data {
		d := math.Abs(dst.Data[i] - want.Data[i])
		if d > 1e-12*math.Max(1, math.Abs(want.Data[i])) {
			t.Fatalf("element %d: got %v, want %v", i, dst.Data[i], want.Data[i])
		}
	}
}

// TestMatMulTNMatchesExplicitTranspose checks aᵀ*b against MatMul with
// a materialised transpose. The TN kernel shares MatMul's k-increasing
// order, so this comparison is exact.
func TestMatMulTNMatchesExplicitTranspose(t *testing.T) {
	r := rng.New(306)
	a := randMatrix(r, 53, 19)
	b := randMatrix(r, 53, 37)
	dst := NewMatrix(19, 37)
	MatMulTNInto(dst, a, b)
	want := MatMul(a.T(), b)
	for i := range want.Data {
		if dst.Data[i] != want.Data[i] {
			t.Fatalf("element %d: got %v, want %v", i, dst.Data[i], want.Data[i])
		}
	}
}

func TestMatMulTNAddIntoAccumulates(t *testing.T) {
	r := rng.New(307)
	a := randMatrix(r, 29, 15)
	b := randMatrix(r, 29, 21)
	base := randMatrix(r, 15, 21)
	dst := base.Clone()
	MatMulTNAddInto(dst, a, b)
	prod := MatMul(a.T(), b)
	for i := range dst.Data {
		want := base.Data[i] + prod.Data[i]
		if math.Abs(dst.Data[i]-want) > 1e-12*math.Max(1, math.Abs(want)) {
			t.Fatalf("element %d: got %v, want %v", i, dst.Data[i], want)
		}
	}
}

func TestMulVecIntoMatchesMulVec(t *testing.T) {
	r := rng.New(308)
	m := randMatrix(r, 200, 140)
	v := make(Vec, 140)
	for i := range v {
		v[i] = r.NormalScaled(0, 1)
	}
	want := m.MulVec(v)
	dst := make(Vec, 200)
	fillNaN(dst)
	m.MulVecInto(dst, v)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("element %d: got %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestIntoKernelShapePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"MatMulInto/inner", func() { MatMulInto(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 3)) }},
		{"MatMulInto/dst", func() { MatMulInto(NewMatrix(3, 3), NewMatrix(2, 3), NewMatrix(3, 2)) }},
		{"MatMulAddInto/dst", func() { MatMulAddInto(NewMatrix(1, 1), NewMatrix(2, 3), NewMatrix(3, 2)) }},
		{"MatMulNTInto/inner", func() { MatMulNTInto(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 4)) }},
		{"MatMulTNInto/inner", func() { MatMulTNInto(NewMatrix(3, 2), NewMatrix(2, 3), NewMatrix(3, 2)) }},
		{"MulVecInto/dst", func() { NewMatrix(2, 2).MulVecInto(make(Vec, 3), make(Vec, 2)) }},
		{"MulVecInto/v", func() { NewMatrix(2, 2).MulVecInto(make(Vec, 2), make(Vec, 3)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}
