// Package lbfgs implements Algorithm 2 of the paper: the limited-memory
// BFGS *compact representation* (Byrd, Nocedal & Schnabel, 1994) of an
// approximate Hessian built from s vector pairs
//
//	ΔW = [Δw₁ … Δwₛ]   (model-parameter differences)
//	ΔGⁱ = [Δg₁ … Δgₛ]  (per-client gradient differences)
//
// The approximation is
//
//	H̃ = σI − [ΔG σΔW] · M⁻¹ · [ΔGᵀ; σΔWᵀ]
//	M  = [[−D, Lᵀ], [L, σΔWᵀΔW]]
//
// where A = ΔWᵀΔG, L = tril(A) (strict lower triangle), D = diag(A)
// and σ = (Δgₛ₋₁ᵀΔwₛ₋₁)/(Δwₛ₋₁ᵀΔwₛ₋₁). The recovery procedure only
// ever needs Hessian-vector products H̃·(w̄ₜ − wₜ), so the package
// exposes HVP and never materialises the d×d matrix; Dense exists for
// tests and tiny problems.
//
// A product is two sweeps over the dim-length vectors: one computes all
// 2s projections [ΔGᵀv; ΔWᵀv] side by side (tensor.DotsInto), the 2s×2s
// solve turns them into one multiplier per pair column, and a second
// sweep forms σv − ΔG·q − σΔW·q element by element in registers,
// testing finiteness and writing dst once. EstimateInto folds the rest
// of the recovery estimate (eq. 6–7: add the stored direction, clip)
// into that same second sweep.
//
// Note on the paper's σ: Algorithm 2 writes it with a MATLAB backslash
// (left division). We follow FedRecover (Cao et al., S&P'23), which the
// paper reproduces, and use σ = (ΔgᵀΔw)/(ΔwᵀΔw) — the standard
// B₀ = σI scaling with positive curvature.
package lbfgs

import (
	"errors"
	"fmt"
	"math"

	"fuiov/internal/sign"
	"fuiov/internal/tensor"
)

// ErrDegenerate is returned when the vector pairs cannot produce a
// usable approximation (zero curvature, singular middle matrix, or
// non-finite values). Callers should fall back to using the raw stored
// gradient without a Hessian correction.
var ErrDegenerate = errors.New("lbfgs: degenerate vector pairs")

// Approx is a ready-to-use compact Hessian approximation.
type Approx struct {
	dim   int
	s     int
	sigma float64
	// cols holds the 2s pair columns (each of length dim) in the order
	// a product subtracts them: Δg₀, Δw₀, Δg₁, Δw₁, …
	cols [][]float64
	// minv is the precomputed 2s×2s inverse middle matrix.
	minv *tensor.Matrix
	// scratch is the 6s-length workspace of HVPInto and EstimateInto
	// (see project), so the recovery hot loop incurs no per-product
	// allocation. HVP allocates its own and stays safe for concurrent
	// use.
	scratch []float64
	// held lists the PairBuffer columns cols aliases (nil for New).
	held []*Column
}

// New builds the approximation from s vector pairs. dW and dG must be
// non-empty, equal-length slices of equal-length vectors. The Approx
// keeps copies, so the caller may reuse the vectors; PairBuffer.Build
// aliases its window instead.
func New(dW, dG [][]float64) (*Approx, error) {
	a, err := newAliased(dW, dG)
	if err != nil {
		return nil, err
	}
	for i, c := range a.cols {
		a.cols[i] = tensor.CloneVec(c)
	}
	return a, nil
}

// newAliased is New over the caller's vectors themselves, which must
// then not change while the Approx is in use.
func newAliased(dW, dG [][]float64) (*Approx, error) {
	s := len(dW)
	if s == 0 || len(dG) != s {
		return nil, fmt.Errorf("lbfgs: need equal non-zero pair counts, got %d and %d", len(dW), len(dG))
	}
	dim := len(dW[0])
	if dim == 0 {
		return nil, errors.New("lbfgs: zero-dimensional vectors")
	}
	for i := 0; i < s; i++ {
		if len(dW[i]) != dim || len(dG[i]) != dim {
			return nil, fmt.Errorf("lbfgs: pair %d has inconsistent dimension", i)
		}
		if !tensor.AllFinite(dW[i]) || !tensor.AllFinite(dG[i]) {
			return nil, fmt.Errorf("%w: non-finite pair %d", ErrDegenerate, i)
		}
	}

	// σ from the most recent pair.
	num := tensor.Dot(dG[s-1], dW[s-1])
	den := tensor.Dot(dW[s-1], dW[s-1])
	if den == 0 || num <= 0 {
		return nil, fmt.Errorf("%w: curvature %v / %v", ErrDegenerate, num, den)
	}
	sigma := num / den
	if math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return nil, fmt.Errorf("%w: sigma %v", ErrDegenerate, sigma)
	}

	// A = ΔWᵀΔG and ΔWᵀΔW, both s×s.
	a := tensor.NewMatrix(s, s)
	wtw := tensor.NewMatrix(s, s)
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			a.Set(i, j, tensor.Dot(dW[i], dG[j]))
			wtw.Set(i, j, tensor.Dot(dW[i], dW[j]))
		}
	}
	l := tensor.Tril(a)
	d := tensor.Diag(a)

	// M = [[-D, Lᵀ], [L, σ·ΔWᵀΔW]].
	m := tensor.Block(
		tensor.ScaleMat(-1, d), l.T(),
		l, tensor.ScaleMat(sigma, wtw),
	)
	minv, err := tensor.Inverse(m)
	if err != nil {
		return nil, fmt.Errorf("%w: middle matrix: %v", ErrDegenerate, err)
	}
	cols := make([][]float64, 0, 2*s)
	for i := 0; i < s; i++ {
		cols = append(cols, dG[i], dW[i])
	}
	return &Approx{dim: dim, s: s, sigma: sigma, cols: cols, minv: minv,
		scratch: make([]float64, 6*s)}, nil
}

// Release hands the pair columns back to the PairBuffer that built a,
// which may then recycle them; a must not be used afterwards. It is a
// no-op for an Approx from New and for a second call.
func (a *Approx) Release() {
	for _, c := range a.held {
		c.drop()
	}
	a.held = nil
}

// Dim returns the model dimension.
func (a *Approx) Dim() int { return a.dim }

// HVP returns H̃·v without materialising H̃. The cost is O(dim·s). It
// allocates its result and scratch, so it is safe for concurrent use;
// hot loops should prefer HVPInto.
func (a *Approx) HVP(v []float64) ([]float64, error) {
	if len(v) != a.dim {
		return nil, fmt.Errorf("lbfgs: HVP input dimension %d, want %d", len(v), a.dim)
	}
	out := make([]float64, a.dim)
	if _, err := a.sweep(out, v, a.project(v, make([]float64, 6*a.s)), nil, math.Inf(1)); err != nil {
		return nil, err
	}
	return out, nil
}

// HVPInto writes H̃·v into dst (length Dim) without allocating: the
// 2s-length intermediates live in scratch owned by the Approx. Because
// of that shared scratch a single Approx must not run concurrent
// HVPInto or EstimateInto calls; use HVP where products race. On
// error dst holds a partial product.
func (a *Approx) HVPInto(dst, v []float64) error {
	_, err := a.EstimateInto(dst, v, nil, math.Inf(1))
	return err
}

// EstimateInto writes the recovery estimate of eq. 6–7 into dst:
//
//	dst = clip(dir + H̃·v, ±limit)
//
// and returns how many elements the limit clipped. Every element goes
// through exactly the operations, in exactly the order, of HVPInto
// followed by dir.AccumulateInto(dst, 1) and an elementwise clip, so
// the bits are the same; but the product is never stored unclipped and
// dst is written once. A nil dir adds nothing and a limit of +Inf
// never clips (what HVPInto passes). It fails with ErrDegenerate as
// soon as an element of H̃·v is not finite — dst is then partially
// written and the caller falls back to the raw direction. It shares
// the Approx-owned scratch with HVPInto.
func (a *Approx) EstimateInto(dst, v []float64, dir *sign.Direction, limit float64) (clipped int, err error) {
	if len(v) != a.dim {
		return 0, fmt.Errorf("lbfgs: HVP input dimension %d, want %d", len(v), a.dim)
	}
	if len(dst) != a.dim {
		return 0, fmt.Errorf("lbfgs: HVP output dimension %d, want %d", len(dst), a.dim)
	}
	if dir != nil && dir.Len() != a.dim {
		return 0, fmt.Errorf("lbfgs: direction dimension %d, want %d", dir.Len(), a.dim)
	}
	return a.sweep(dst, v, a.project(v, a.scratch), dir, limit)
}

// project is the first sweep and the small solve: it returns, in the
// last third of the 6s-length scratch, the multiplier of each pair
// column such that H̃·v = σv + Σₖ coef[k]·cols[k], the terms added in
// that order.
func (a *Approx) project(v, scratch []float64) (coef []float64) {
	s := a.s
	rhs, q, coef := scratch[:2*s], scratch[2*s:4*s], scratch[4*s:]
	// rhs = [ΔGᵀv; σΔWᵀv] ∈ R^{2s}; the raw projections land in coef,
	// column order, before the multipliers overwrite them.
	tensor.DotsInto(coef, a.cols, v)
	for i := 0; i < s; i++ {
		rhs[i] = coef[2*i]
		rhs[s+i] = a.sigma * coef[2*i+1]
	}
	a.minv.MulVecInto(q, rhs)
	// H̃·v = σv − ΔG·q[:s] − σ·ΔW·q[s:].
	for i := 0; i < s; i++ {
		coef[2*i] = -q[i]
		coef[2*i+1] = -a.sigma * q[s+i]
	}
	return coef
}

// sweep is the second sweep: per element, σv plus the 2s column terms
// in order, the finiteness test, the direction (when dir is non-nil)
// and the clip, accumulated in registers and stored once. It walks
// four elements per step — one packed direction byte — so the four
// element chains overlap; the columns are an inner loop, which keeps
// it generic in s.
func (a *Approx) sweep(dst, v, coef []float64, dir *sign.Direction, limit float64) (clipped int, err error) {
	sigma := a.sigma
	j := 0
	for ; j+4 <= a.dim; j += 4 {
		vv := v[j : j+4 : j+4]
		x0, x1, x2, x3 := sigma*vv[0], sigma*vv[1], sigma*vv[2], sigma*vv[3]
		for k, c := range a.cols {
			ck, cc := coef[k], c[j:j+4:j+4]
			x0 += float64(ck * cc[0])
			x1 += float64(ck * cc[1])
			x2 += float64(ck * cc[2])
			x3 += float64(ck * cc[3])
		}
		if !(tensor.Finite(x0) && tensor.Finite(x1) && tensor.Finite(x2) && tensor.Finite(x3)) {
			return 0, errNonFinite
		}
		if dir != nil {
			g := dir.Quad(j / 4)
			x0 += g[0]
			x1 += g[1]
			x2 += g[2]
			x3 += g[3]
		}
		var f0, f1, f2, f3 int
		x0, f0 = tensor.ClampAbs(x0, limit)
		x1, f1 = tensor.ClampAbs(x1, limit)
		x2, f2 = tensor.ClampAbs(x2, limit)
		x3, f3 = tensor.ClampAbs(x3, limit)
		clipped += f0 + f1 + f2 + f3
		d := dst[j : j+4 : j+4]
		d[0], d[1], d[2], d[3] = x0, x1, x2, x3
	}
	for ; j < a.dim; j++ {
		x := sigma * v[j]
		for k, c := range a.cols {
			x += float64(coef[k] * c[j])
		}
		if !tensor.Finite(x) {
			return 0, errNonFinite
		}
		if dir != nil {
			x += dir.At(j)
		}
		var f int
		dst[j], f = tensor.ClampAbs(x, limit)
		clipped += f
	}
	return clipped, nil
}

var errNonFinite = fmt.Errorf("%w: non-finite product", ErrDegenerate)
