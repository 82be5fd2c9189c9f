package lbfgs

import (
	"errors"
	"math"
	"testing"

	"fuiov/internal/rng"
	"fuiov/internal/sign"
	"fuiov/internal/tensor"
)

// randomSPD returns a random symmetric positive-definite matrix.
func randomSPD(r *rng.RNG, n int) *tensor.Matrix {
	a := tensor.NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = r.NormalScaled(0, 1)
	}
	spd := matMul(a.T(), a)
	for i := 0; i < n; i++ {
		spd.Data[i*n+i] += float64(n)
	}
	return spd
}

// pairsFromQuadratic generates s pairs consistent with the quadratic
// Hessian Q: Δg = Q·Δw.
func pairsFromQuadratic(r *rng.RNG, q *tensor.Matrix, s int) (dW, dG [][]float64) {
	n := q.Rows
	for i := 0; i < s; i++ {
		dw := make([]float64, n)
		for j := range dw {
			dw[j] = r.NormalScaled(0, 1)
		}
		dW = append(dW, dw)
		dG = append(dG, mulVec(q, dw))
	}
	return dW, dG
}

func TestNewestSecantCondition(t *testing.T) {
	// BFGS guarantees the secant equation H̃·Δw = Δg for the most
	// recent pair exactly.
	r := rng.New(1)
	for _, tc := range []struct{ dim, s int }{
		{5, 1}, {8, 2}, {12, 3}, {20, 4},
	} {
		q := randomSPD(r, tc.dim)
		dW, dG := pairsFromQuadratic(r, q, tc.s)
		a, err := New(dW, dG)
		if err != nil {
			t.Fatalf("dim=%d s=%d: %v", tc.dim, tc.s, err)
		}
		j := tc.s - 1
		got, err := a.HVP(dW[j])
		if err != nil {
			t.Fatal(err)
		}
		scale := tensor.Norm2(dG[j])
		if diff := tensor.Norm2(tensor.Sub(got, dG[j])); diff > 1e-6*scale {
			t.Errorf("dim=%d s=%d: newest secant residual %v (|Δg|=%v)",
				tc.dim, tc.s, diff, scale)
		}
	}
}

// referenceBFGS applies the textbook recursive BFGS update sequence
// starting from B₀ = σI:
//
//	B ← B − (B s sᵀ B)/(sᵀ B s) + (y yᵀ)/(yᵀ s)
//
// The compact representation must agree with it exactly (Byrd, Nocedal
// & Schnabel 1994, Theorem 2.2).
func referenceBFGS(sigma float64, dW, dG [][]float64) *tensor.Matrix {
	dim := len(dW[0])
	b := tensor.ScaleMat(sigma, tensor.Identity(dim))
	for j := range dW {
		s, y := dW[j], dG[j]
		bs := mulVec(b, s)
		sBs := tensor.Dot(s, bs)
		ys := tensor.Dot(y, s)
		for r := 0; r < dim; r++ {
			for c := 0; c < dim; c++ {
				b.Set(r, c, b.At(r, c)-bs[r]*bs[c]/sBs+y[r]*y[c]/ys)
			}
		}
	}
	return b
}

func TestCompactMatchesRecursiveBFGS(t *testing.T) {
	r := rng.New(2)
	for _, tc := range []struct{ dim, s int }{
		{4, 1}, {6, 2}, {9, 3}, {12, 4},
	} {
		q := randomSPD(r, tc.dim)
		dW, dG := pairsFromQuadratic(r, q, tc.s)
		a, err := New(dW, dG)
		if err != nil {
			t.Fatalf("dim=%d s=%d: %v", tc.dim, tc.s, err)
		}
		want := referenceBFGS(a.sigma, dW, dG)
		got, err := a.Dense()
		if err != nil {
			t.Fatal(err)
		}
		if !equalMat(got, want, 1e-7*(1+maxAbs(want.Data))) {
			t.Errorf("dim=%d s=%d: compact form disagrees with recursive BFGS (max |diff| %v)",
				tc.dim, tc.s, maxAbs(tensor.Sub(got.Data, want.Data)))
		}
	}
}

func TestDenseMatchesHVPAndIsSymmetric(t *testing.T) {
	r := rng.New(3)
	dim := 7
	q := randomSPD(r, dim)
	dW, dG := pairsFromQuadratic(r, q, 3)
	a, err := New(dW, dG)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := a.Dense()
	if err != nil {
		t.Fatal(err)
	}
	// Symmetry.
	if !equalMat(dense, dense.T(), 1e-8) {
		t.Error("dense approximation is not symmetric")
	}
	// HVP consistency.
	v := make([]float64, dim)
	for i := range v {
		v[i] = r.Normal()
	}
	hv, err := a.HVP(v)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(hv, mulVec(dense, v), 1e-9) {
		t.Error("HVP and Dense·v disagree")
	}
}

func TestSigmaPositiveCurvature(t *testing.T) {
	r := rng.New(4)
	q := randomSPD(r, 5)
	dW, dG := pairsFromQuadratic(r, q, 2)
	a, err := New(dW, dG)
	if err != nil {
		t.Fatal(err)
	}
	if a.sigma <= 0 {
		t.Errorf("sigma = %v, want > 0 for SPD pairs", a.sigma)
	}
}

func TestDegenerateInputs(t *testing.T) {
	zero := [][]float64{{0, 0, 0}}
	// Zero Δw: curvature denominator is zero.
	if _, err := New(zero, [][]float64{{1, 1, 1}}); !errors.Is(err, ErrDegenerate) {
		t.Errorf("zero Δw: err = %v, want ErrDegenerate", err)
	}
	// Negative curvature.
	if _, err := New([][]float64{{1, 0, 0}}, [][]float64{{-1, 0, 0}}); !errors.Is(err, ErrDegenerate) {
		t.Errorf("negative curvature: err = %v, want ErrDegenerate", err)
	}
	// Non-finite input.
	if _, err := New([][]float64{{math.NaN(), 0, 0}}, [][]float64{{1, 0, 0}}); !errors.Is(err, ErrDegenerate) {
		t.Errorf("NaN: err = %v, want ErrDegenerate", err)
	}
}

func TestShapeValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("empty pairs should error")
	}
	if _, err := New([][]float64{{1, 2}}, [][]float64{{1, 2}, {3, 4}}); err == nil {
		t.Error("mismatched pair counts should error")
	}
	if _, err := New([][]float64{{1, 2}}, [][]float64{{1, 2, 3}}); err == nil {
		t.Error("mismatched dimensions should error")
	}
	if _, err := New([][]float64{{}}, [][]float64{{}}); err == nil {
		t.Error("zero-dimensional should error")
	}
	a, err := New([][]float64{{1, 0}}, [][]float64{{2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.HVP([]float64{1, 2, 3}); err == nil {
		t.Error("HVP with wrong dimension should error")
	}
}

func TestApproxCopiesInputs(t *testing.T) {
	dW := [][]float64{{1, 0}}
	dG := [][]float64{{2, 0}}
	a, err := New(dW, dG)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := a.HVP([]float64{1, 1})
	dW[0][0] = 999
	dG[0][0] = -999
	after, _ := a.HVP([]float64{1, 1})
	if !equal(before, after, 0) {
		t.Error("Approx aliases caller slices")
	}
}

func TestSingleIdentityPair(t *testing.T) {
	// Δg = Δw → the approximation must act as the identity on Δw and
	// have σ = 1.
	a, err := New([][]float64{{3, 4}}, [][]float64{{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.sigma-1) > 1e-12 {
		t.Errorf("sigma = %v, want 1", a.sigma)
	}
	got, err := a.HVP([]float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !equal(got, []float64{3, 4}, 1e-9) {
		t.Errorf("H̃Δw = %v, want Δw", got)
	}
}

func TestPairBuffer(t *testing.T) {
	if _, err := NewPairBuffer(0); err == nil {
		t.Error("capacity 0 should error")
	}
	p, err := NewPairBuffer(2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Full() || p.Len() != 0 || p.capacity != 2 {
		t.Error("fresh buffer state wrong")
	}
	if _, err := p.Build(); err == nil {
		t.Error("Build on empty buffer should error")
	}
	if err := p.Push([]float64{1, 0}, []float64{2}); err == nil {
		t.Error("dimension mismatch should error")
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(p.Push([]float64{1, 0}, []float64{2, 0}))
	if p.Full() {
		t.Error("buffer should not be full at 1/2")
	}
	must(p.Push([]float64{0, 1}, []float64{0, 3}))
	if !p.Full() {
		t.Error("buffer should be full at 2/2")
	}
	if err := p.Push([]float64{1, 2, 3}, []float64{1, 2, 3}); err == nil {
		t.Error("incompatible dimension should error")
	}
	// Eviction keeps the newest pairs.
	must(p.Push([]float64{1, 1}, []float64{4, 4}))
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	a, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Newest pair (Δw=[1,1], Δg=[4,4]) must satisfy the secant
	// equation.
	got, err := a.HVP([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !equal(got, []float64{4, 4}, 1e-8) {
		t.Errorf("secant on newest pair: %v, want [4 4]", got)
	}
	p.Reset()
	if p.Len() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestPairBufferCopies(t *testing.T) {
	p, err := NewPairBuffer(1)
	if err != nil {
		t.Fatal(err)
	}
	dw := []float64{1, 0}
	dg := []float64{2, 0}
	if err := p.Push(dw, dg); err != nil {
		t.Fatal(err)
	}
	dw[0] = 77
	dg[0] = 88
	a, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := a.HVP([]float64{1, 0})
	if math.Abs(got[0]-2) > 1e-9 {
		t.Errorf("buffer aliases caller slices: HVP = %v", got)
	}
}

func TestHVPIntoMatchesHVP(t *testing.T) {
	r := rng.New(77)
	q := randomSPD(r, 12)
	dW, dG := pairsFromQuadratic(r, q, 3)
	a, err := New(dW, dG)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, a.Dim())
	for trial := 0; trial < 5; trial++ {
		v := make([]float64, a.Dim())
		for i := range v {
			v[i] = r.NormalScaled(0, 1)
		}
		want, err := a.HVP(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.HVPInto(dst, v); err != nil {
			t.Fatal(err)
		}
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("trial %d element %d: HVPInto %v, HVP %v", trial, i, dst[i], want[i])
			}
		}
	}
	if err := a.HVPInto(make([]float64, 3), make([]float64, a.Dim())); err == nil {
		t.Fatal("expected dimension error for short dst")
	}
	if err := a.HVPInto(dst, make([]float64, 3)); err == nil {
		t.Fatal("expected dimension error for short input")
	}
}

// TestEstimateIntoMatchesComposition: the fused estimate is HVPInto,
// then the direction added, then an elementwise clamp — same bits,
// same count — for every pair count and around the four-element step;
// a non-finite product is reported, not written through.
func TestEstimateIntoMatchesComposition(t *testing.T) {
	r := rng.New(91)
	for _, n := range []int{1, 3, 4, 5, 31} {
		for s := 1; s <= 3; s++ {
			dW, dG := pairsFromQuadratic(r, randomSPD(r, n), s)
			a, err := New(dW, dG)
			if err != nil {
				t.Fatal(err)
			}
			v, g := make([]float64, n), make([]float64, n)
			for i := range v {
				v[i], g[i] = r.NormalScaled(0, 1), r.NormalScaled(0, 1)
			}
			dir, err := sign.Compress(g, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, n)
			if err := a.HVPInto(want, v); err != nil {
				t.Fatal(err)
			}
			dir.AccumulateInto(want, 1)
			limit := math.Abs(want[n/2]) // on one element, clips some others
			wantClipped := 0
			for i, x := range want {
				if math.Abs(x) > limit {
					want[i] = math.Copysign(limit, x)
					wantClipped++
				}
			}
			got := make([]float64, n)
			clipped, err := a.EstimateInto(got, v, dir, limit)
			if err != nil {
				t.Fatal(err)
			}
			if clipped != wantClipped {
				t.Errorf("n=%d s=%d: clipped %d, want %d", n, s, clipped, wantClipped)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d s=%d element %d: EstimateInto %v, composition %v", n, s, i, got[i], want[i])
				}
			}

			v[n-1] = math.Inf(-1)
			if _, err := a.EstimateInto(got, v, dir, limit); !errors.Is(err, ErrDegenerate) {
				t.Errorf("n=%d s=%d: non-finite product: err = %v, want ErrDegenerate", n, s, err)
			}
			if _, err := a.EstimateInto(got, v[:n-1], dir, limit); err == nil && n > 1 {
				t.Errorf("n=%d s=%d: expected dimension error for short input", n, s)
			}
		}
	}
	a, _ := New([][]float64{{1, 0}}, [][]float64{{2, 0}})
	short, _ := sign.Compress([]float64{1}, 0)
	if _, err := a.EstimateInto(make([]float64, 2), make([]float64, 2), short, 1); err == nil {
		t.Error("expected dimension error for short direction")
	}
}
