package unlearn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"fuiov/internal/history"
	"fuiov/internal/lbfgs"
	"fuiov/internal/rng"
	"fuiov/internal/sign"
	"fuiov/internal/tensor"
)

// The reference composition: the client-round estimate as it was built
// before the two-sweep kernel — one tensor/sign call per dim-length
// pass (Dot ×2s, ScaleInto, AxpyInPlace ×2s, AllFinite, copy,
// AccumulateInto, a branching clip). It exists only here, as the oracle
// the fused estimate must match bit for bit.

// refApprox is the compact L-BFGS approximation with the product
// computed pass by pass.
type refApprox struct {
	s      int
	sigma  float64
	dW, dG [][]float64
	minv   *tensor.Matrix
	rhs, q []float64
}

func newRefApprox(dW, dG [][]float64) (*refApprox, error) {
	s := len(dW)
	for i := 0; i < s; i++ {
		if !tensor.AllFinite(dW[i]) || !tensor.AllFinite(dG[i]) {
			return nil, lbfgs.ErrDegenerate
		}
	}
	num := tensor.Dot(dG[s-1], dW[s-1])
	den := tensor.Dot(dW[s-1], dW[s-1])
	if den == 0 || num <= 0 {
		return nil, lbfgs.ErrDegenerate
	}
	sigma := num / den
	if math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return nil, lbfgs.ErrDegenerate
	}
	a := tensor.NewMatrix(s, s)
	wtw := tensor.NewMatrix(s, s)
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			a.Set(i, j, tensor.Dot(dW[i], dG[j]))
			wtw.Set(i, j, tensor.Dot(dW[i], dW[j]))
		}
	}
	l := tensor.Tril(a)
	m := tensor.Block(
		tensor.ScaleMat(-1, tensor.Diag(a)), l.T(),
		l, tensor.ScaleMat(sigma, wtw),
	)
	minv, err := tensor.Inverse(m)
	if err != nil {
		return nil, lbfgs.ErrDegenerate
	}
	return &refApprox{s: s, sigma: sigma, dW: dW, dG: dG, minv: minv,
		rhs: make([]float64, 2*s), q: make([]float64, 2*s)}, nil
}

func (a *refApprox) hvpInto(dst, v []float64) error {
	for i := 0; i < a.s; i++ {
		a.rhs[i] = tensor.Dot(a.dG[i], v)
		a.rhs[a.s+i] = a.sigma * tensor.Dot(a.dW[i], v)
	}
	a.minv.MulVecInto(a.q, a.rhs)
	for i, x := range v {
		dst[i] = a.sigma * x
	}
	for i := 0; i < a.s; i++ {
		tensor.AxpyInPlace(dst, -a.q[i], a.dG[i])
		tensor.AxpyInPlace(dst, -a.sigma*a.q[a.s+i], a.dW[i])
	}
	for _, x := range dst {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return lbfgs.ErrDegenerate
		}
	}
	return nil
}

// refClipCount is ClipCount with the elementwise limit as a branch per
// element.
func refClipCount(g []float64, l float64, mode ClipMode) int {
	if mode == ClipNorm || mode == ClipOff {
		return ClipCount(g, l, mode)
	}
	clipped := 0
	for i, v := range g {
		if math.Abs(v) > l {
			g[i] = math.Copysign(l, v)
			clipped++
		}
	}
	return clipped
}

// refState mirrors clientState with the separate H̃·Δw buffer the
// composition needs.
type refState struct {
	approx       *refApprox
	raw, est, hv []float64
}

func (st *refState) estimate(dir *sign.Direction, deltaW []float64, refresh bool, l float64, mode ClipMode) estimate {
	if refresh {
		dir.DenseInto(st.raw)
	}
	fallback := st.approx == nil
	if !fallback && st.approx.hvpInto(st.hv, deltaW) != nil {
		fallback = true
	}
	if fallback {
		dir.DenseInto(st.est)
	} else {
		copy(st.est, st.hv)
		dir.AccumulateInto(st.est, 1)
	}
	return estimate{clipped: refClipCount(st.est, l, mode), fallback: fallback}
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestEstimateMatchesReferenceComposition is the kernel-equivalence
// property: over pair counts, dimensions around the four-element step,
// every clip mode, thresholds above, below, inside and exactly on the
// estimate's elements, and NaN/±Inf injected into the pairs and Δw, the
// two-sweep estimate yields the reference composition's est bits,
// clipped count and fallback flag — and the same refresh Δg, now formed
// in raw instead of a third buffer.
func TestEstimateMatchesReferenceComposition(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	type poke struct {
		name string
		// pair, when set, poisons the named element of pair column 0
		// before the approximations are built; dw likewise for Δw.
		pair, dw float64
		// mayFallBack marks a case that is free to end either way;
		// every other poisoned case must take the fallback.
		mayFallBack bool
	}
	pokes := []poke{
		{name: "clean"},
		{name: "dw NaN", dw: nan},
		{name: "dw +Inf", dw: inf},
		{name: "dw -Inf", dw: -inf},
		{name: "dw overflows product", dw: 1e308, mayFallBack: true},
		{name: "pair NaN", pair: nan},
		{name: "pair -Inf", pair: -inf},
	}
	modes := []ClipMode{ClipElementwise, ClipNorm, ClipOff}
	for _, dim := range []int{1, 3, 4, 5, 1023, 1024, 1025, 34186} {
		for s := 0; s <= 3; s++ { // s = 0: no approximation built yet
			r := rng.New(uint64(1000*dim + s))
			vec := func(scale float64) []float64 {
				v := make([]float64, dim)
				for i := range v {
					v[i] = r.NormalScaled(0, scale)
				}
				return v
			}
			g := vec(1)
			for i := range g {
				if i%5 == 0 {
					g[i] = 0 // zero slots in the packed direction
				}
			}
			dir, err := sign.Compress(g, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			for _, pk := range pokes {
				if s == 0 && pk.pair != 0 {
					continue
				}
				dW := make([][]float64, s)
				dG := make([][]float64, s)
				for k := range dW {
					dW[k] = vec(0.1)
					dG[k] = vec(0.01)
					tensor.AxpyInPlace(dG[k], 2, dW[k]) // positive curvature
				}
				deltaW := vec(0.05)
				at := dim / 2
				if pk.pair != 0 {
					dG[0][at] = pk.pair
				}
				if pk.dw != 0 {
					deltaW[at] = pk.dw
				}
				st := &clientState{raw: make([]float64, dim), est: make([]float64, dim)}
				ref := &refState{raw: make([]float64, dim), est: make([]float64, dim), hv: make([]float64, dim)}
				if s > 0 {
					a, err := lbfgs.New(dW, dG)
					ra, rerr := newRefApprox(dW, dG)
					if (err == nil) != (rerr == nil) {
						t.Fatalf("dim %d s %d %s: lbfgs.New err %v, reference err %v", dim, s, pk.name, err, rerr)
					}
					if err == nil {
						st.approx, ref.approx = a, ra
					} else if !errors.Is(err, lbfgs.ErrDegenerate) {
						t.Fatal(err)
					}
				}
				// Thresholds taken from the unclipped estimate itself.
				ref.estimate(dir, deltaW, false, 1, ClipOff)
				limits := []float64{
					2 * normInf(ref.est),        // above every element
					math.SmallestNonzeroFloat64, // below every non-zero element
					math.Abs(ref.est[at]),       // exactly on an element, inside the range
					tensor.Norm2(ref.est),       // exactly the norm
				}
				for _, mode := range modes {
					for _, l := range limits {
						for _, refresh := range []bool{false, true} {
							name := fmt.Sprintf("dim %d s %d %s mode %v L %g refresh %v", dim, s, pk.name, mode, l, refresh)
							want := ref.estimate(dir, deltaW, refresh, l, mode)
							got := st.estimate(dir, deltaW, refresh, l, mode)
							if poisoned := pk.pair != 0 || pk.dw != 0; !pk.mayFallBack && want.fallback != (s == 0 || poisoned) {
								t.Fatalf("%s: reference fallback = %v; the case does not test what it names", name, want.fallback)
							}
							if got != want {
								t.Fatalf("%s: estimate %+v, reference %+v", name, got, want)
							}
							if i := sameBits(st.est, ref.est); i >= 0 {
								t.Fatalf("%s: est[%d] = %v, reference %v", name, i, st.est[i], ref.est[i])
							}
							if !refresh {
								continue
							}
							if i := sameBits(st.raw, ref.raw); i >= 0 {
								t.Fatalf("%s: raw[%d] = %v, reference %v", name, i, st.raw[i], ref.raw[i])
							}
							tensor.SubInto(ref.hv, ref.est, ref.raw)
							tensor.SubInto(st.raw, st.est, st.raw)
							if i := sameBits(st.raw, ref.hv); i >= 0 {
								t.Fatalf("%s: refresh Δg[%d] = %v, reference %v", name, i, st.raw[i], ref.hv[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestRecoveryRoundAllocs pins the steady-state recovered round — every
// client's state materialised, no pair refresh due — at zero heap
// allocations, inline and through the fan-out: the pass owns its
// WaitGroup and its pre-bound workers, so a round costs no closure, no
// WaitGroup and no per-client buffer.
func TestRecoveryRoundAllocs(t *testing.T) {
	store := randomStore(t, 31, 257, 64, 6, 3)
	ctx := context.Background()
	for _, par := range []int{1, 2} {
		u, err := New(store, Config{LearningRate: 0.02, Parallelism: par, RefreshEvery: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		wF, f, err := u.Backtrack(1)
		if err != nil {
			t.Fatal(err)
		}
		p := u.newPass(wF, f, []history.ClientID{1})
		if err := p.runTo(ctx, f+4); err != nil { // warm-up: states, work lists
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(30, func() {
			if err := p.runTo(ctx, p.next+1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("parallelism %d: recovered round allocated %v times, want 0", par, allocs)
		}
		if p.res.DegenerateFallbacks == p.res.RecoveredRounds*5 {
			t.Errorf("parallelism %d: every estimate fell back; the fused path was not exercised", par)
		}
	}
}

// normInf returns the largest absolute element of v (0 for empty v).
func normInf(v []float64) float64 {
	var m float64
	for _, x := range v {
		m = max(m, math.Abs(x))
	}
	return m
}
