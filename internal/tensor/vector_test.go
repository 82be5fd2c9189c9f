package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddSub(t *testing.T) {
	a := Vec{1, 2, 3}
	b := Vec{4, -1, 0.5}
	if got := Add(a, b); !Equal(got, Vec{5, 1, 3.5}, 0) {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(a, b); !Equal(got, Vec{-3, 3, 2.5}, 0) {
		t.Errorf("Sub = %v", got)
	}
	// Inputs untouched.
	if !Equal(a, Vec{1, 2, 3}, 0) || !Equal(b, Vec{4, -1, 0.5}, 0) {
		t.Error("inputs mutated")
	}
}

func TestInPlaceOps(t *testing.T) {
	a := Vec{1, 2, 3}
	AddInPlace(a, Vec{1, 1, 1})
	if !Equal(a, Vec{2, 3, 4}, 0) {
		t.Errorf("AddInPlace = %v", a)
	}
	AxpyInPlace(a, -2, Vec{1, 1, 1})
	if !Equal(a, Vec{0, 1, 2}, 0) {
		t.Errorf("AxpyInPlace = %v", a)
	}
	AxpyInPlace(a, 2, Vec{1, 1, 1})
	if !Equal(a, Vec{2, 3, 4}, 0) {
		t.Errorf("AxpyInPlace = %v", a)
	}
	ScaleInPlace(0.5, a)
	if !Equal(a, Vec{1, 1.5, 2}, 0) {
		t.Errorf("ScaleInPlace = %v", a)
	}
}

func TestDotNorm(t *testing.T) {
	a := Vec{3, 4}
	if got := Dot(a, a); got != 25 {
		t.Errorf("Dot = %v, want 25", got)
	}
	if got := Norm2(a); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := NormInf(Vec{-7, 2, 6.5}); got != 7 {
		t.Errorf("NormInf = %v, want 7", got)
	}
	if got := NormInf(nil); got != 0 {
		t.Errorf("NormInf(nil) = %v, want 0", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Vec{1, 2}
	b := CloneVec(a)
	b[0] = 99
	if a[0] != 1 {
		t.Error("CloneVec aliases its input")
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite(Vec{1, -2, 0}) {
		t.Error("finite vector reported non-finite")
	}
	if AllFinite(Vec{1, math.NaN()}) {
		t.Error("NaN not detected")
	}
	if AllFinite(Vec{math.Inf(1)}) {
		t.Error("Inf not detected")
	}
}

func TestEqualLengthMismatch(t *testing.T) {
	if Equal(Vec{1}, Vec{1, 2}, 1e9) {
		t.Error("Equal must reject length mismatch")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	Add(Vec{1}, Vec{1, 2})
}

// Property: addition commutes.
func TestAddCommutative(t *testing.T) {
	f := func(a, b []float64) bool {
		n := min(len(a), len(b))
		a, b = a[:n], b[:n]
		return Equal(Add(a, b), Add(b, a), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dot is bilinear in its first argument.
func TestDotLinearity(t *testing.T) {
	f := func(a, b []float64, alphaRaw int8) bool {
		n := min(len(a), len(b))
		a, b = a[:n], b[:n]
		for _, x := range append(CloneVec(a), b...) {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true // skip pathological float inputs
			}
		}
		alpha := float64(alphaRaw)
		scaled := CloneVec(a)
		ScaleInPlace(alpha, scaled)
		lhs := Dot(scaled, b)
		rhs := alpha * Dot(a, b)
		return math.Abs(lhs-rhs) <= 1e-6*(1+math.Abs(rhs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for the Euclidean norm.
func TestNormTriangleInequality(t *testing.T) {
	f := func(a, b []float64) bool {
		n := min(len(a), len(b))
		a, b = a[:n], b[:n]
		for _, x := range append(CloneVec(a), b...) {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e8 {
				return true
			}
		}
		return Norm2(Add(a, b)) <= Norm2(a)+Norm2(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDotsIntoMatchesDot: however the columns are grouped, every output
// is the bits of a separate Dot call.
func TestDotsIntoMatchesDot(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 5, 1000} {
		v := make(Vec, n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		for ncols := 0; ncols <= 7; ncols++ {
			cols := make([]Vec, ncols)
			for k := range cols {
				cols[k] = make(Vec, n)
				for i := range cols[k] {
					cols[k][i] = r.NormFloat64()
				}
			}
			out := make(Vec, ncols)
			DotsInto(out, cols, v)
			for k := range cols {
				if want := Dot(cols[k], v); math.Float64bits(out[k]) != math.Float64bits(want) {
					t.Errorf("n=%d, column %d of %d: DotsInto %v, Dot %v", n, k, ncols, out[k], want)
				}
			}
		}
	}
}

func TestClampAbsAndFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	negZero := math.Copysign(0, -1)
	tests := []struct {
		x, l, want float64
		fired      int
	}{
		{0.5, 1, 0.5, 0},
		{-0.5, 1, -0.5, 0},
		{1, 1, 1, 0}, // exactly at the limit: within it
		{-1, 1, -1, 0},
		{math.Nextafter(1, 2), 1, 1, 1},
		{-3, 1, -1, 1},
		{inf, 2, 2, 1},
		{-inf, 2, -2, 1},
		{nan, 1, nan, 0},
		{negZero, 1, negZero, 0},
		{5, 0, 0, 1},
		{-5, 0, negZero, 1},
		{1e300, inf, 1e300, 0}, // an infinite limit never fires
		{inf, inf, inf, 0},
	}
	for _, tc := range tests {
		got, fired := ClampAbs(tc.x, tc.l)
		if math.Float64bits(got) != math.Float64bits(tc.want) || fired != tc.fired {
			t.Errorf("ClampAbs(%v, %v) = %v, %d; want %v, %d", tc.x, tc.l, got, fired, tc.want, tc.fired)
		}
	}
	for _, x := range []float64{0, negZero, 1, -1e308, math.SmallestNonzeroFloat64} {
		if !Finite(x) {
			t.Errorf("Finite(%v) = false", x)
		}
	}
	for _, x := range []float64{inf, -inf, nan, -nan} {
		if Finite(x) {
			t.Errorf("Finite(%v) = true", x)
		}
	}
}
