package unlearn

import (
	"context"
	"fmt"
	"math"
	"testing"

	"fuiov/internal/history"
)

// clipViolation reports the first estimate of the round the pass just
// recovered that escapes eq. 7's bound: elementwise |v| ≤ L, with NaN a
// violation, or ‖g̃‖ ≤ L·(1+1e-9), with a NaN norm a violation.
func clipViolation(p *pass, l float64, mode ClipMode) error {
	for i, st := range p.sts {
		id := p.remaining[i]
		switch mode {
		case ClipNorm:
			var sum float64
			for _, v := range st.est {
				sum += v * v
			}
			if norm := math.Sqrt(sum); math.IsNaN(norm) || norm > l*(1+1e-9) {
				return fmt.Errorf("client %d estimate norm %v exceeds clip bound L=%v", id, norm, l)
			}
		case ClipElementwise:
			for j, v := range st.est {
				if math.IsNaN(v) || math.Abs(v) > l {
					return fmt.Errorf("client %d estimate[%d]=%v exceeds clip bound L=%v", id, j, v, l)
				}
			}
		}
	}
	return nil
}

// TestRecoveryEstimatesRespectClipBound drives a pass one round at a
// time over random, gappy and trained histories and checks, after every
// round, each estimate that round aggregated against eq. 7's bound, in
// elementwise and norm modes at Parallelism 1 and 2. Every run must
// also estimate some client-rounds through the L-BFGS approximation,
// the path whose clip is fused into the estimation sweep.
func TestRecoveryEstimatesRespectClipBound(t *testing.T) {
	fed := trainFederation(t, 4, 20, 4, 43)
	fixtures := []struct {
		name  string
		store *history.Store
		lr    float64
	}{
		{"random", randomStore(t, 41, 64, 24, 5, 6), 0.05},
		{"gappy", buildGappyStore(t, 8, 3, 14), 0.01},
		{"trained", fed.store, fed.lr},
	}
	ctx := context.Background()
	for _, fx := range fixtures {
		for _, mode := range []ClipMode{ClipElementwise, ClipNorm} {
			for _, l := range []float64{0.05, 0.3} {
				for _, par := range []int{1, 2} {
					name := fmt.Sprintf("%s %v L=%v parallelism %d", fx.name, mode, l, par)
					u, err := New(fx.store, Config{LearningRate: fx.lr, ClipThreshold: l, ClipMode: mode, Parallelism: par, RefreshEvery: 4})
					if err != nil {
						t.Fatal(err)
					}
					wF, f, err := u.Backtrack(1)
					if err != nil {
						t.Fatal(err)
					}
					p := u.newPass(wF, f, []history.ClientID{1})
					approximated := 0
					for round := f; round < fx.store.Rounds(); round++ {
						if err := p.runTo(ctx, round+1); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if err := clipViolation(p, l, mode); err != nil {
							t.Fatalf("%s: round %d: %v", name, round, err)
						}
						for _, e := range p.estimates {
							if !e.fallback {
								approximated++
							}
						}
					}
					if approximated == 0 {
						t.Errorf("%s: no client-round was estimated through the approximation", name)
					}
				}
			}
		}
	}
}
