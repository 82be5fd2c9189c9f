// Package unlearn implements the paper's federated unlearning scheme
// (Algorithm 1): backtracking the global model to the forgotten
// vehicle's join round, then recovering it on the server side using
// only the stored historical models and gradient *directions* — via
// Cauchy-mean-value-theorem gradient estimation with compact L-BFGS
// Hessian-vector products, error-limiting gradient clipping (eq. 7),
// and periodic vector-pair refresh.
package unlearn

import (
	"fmt"
	"math"

	"fuiov/internal/tensor"
)

// ClipMode selects how estimated gradients are limited (eq. 7 and the
// ablation in DESIGN.md A1).
type ClipMode int

const (
	// ClipElementwise is the paper's eq. 7 read with |·| as the
	// elementwise absolute value: every element is scaled into
	// [−L, L] independently.
	ClipElementwise ClipMode = iota + 1
	// ClipNorm scales the whole vector so its L2 norm is at most L
	// (the differential-privacy-style variant used for the ablation).
	ClipNorm
	// ClipOff disables clipping.
	ClipOff
)

// String names the mode for experiment output.
func (m ClipMode) String() string {
	switch m {
	case ClipElementwise:
		return "elementwise"
	case ClipNorm:
		return "norm"
	case ClipOff:
		return "off"
	default:
		return fmt.Sprintf("ClipMode(%d)", int(m))
	}
}

// ClipCount applies eq. 7 in the given mode, in place (L must be
// positive for the active modes), and reports how many times the limit
// fired: the number of clipped elements in ClipElementwise mode, 1 in
// ClipNorm mode when the vector was rescaled, and always 0 in ClipOff
// mode. Telemetry uses it to track how hard the error-limiting bound
// works during recovery.
//
// Edge-case contract (asserted by the table tests in clip_test.go and
// relied on by TestRecoveryEstimatesRespectClipBound's bound check):
//
//   - ClipElementwise guarantees |g[i]| ≤ L exactly for every finite
//     and infinite input element: clipped elements are set to
//     Copysign(L, v) (tensor.ClampAbs), so ±Inf clips to ±L and no
//     rounding in v/(|v|/L) can land one ulp above the bound.
//   - Elements exactly at ±L are within the bound and pass unchanged
//     in every mode (eq. 7 divides by max(1, |v|/L), which is 1 there).
//   - NaN elements are preserved: NaN compares false against L, so
//     neither mode rescales on their account and a poisoned estimate
//     stays visibly poisoned instead of being laundered into range.
//     In ClipNorm mode a single NaN poisons the norm, so the whole
//     vector passes through untouched.
//   - A zero vector (zero norm) is a fixed point of every mode.
func ClipCount(g []float64, l float64, mode ClipMode) int {
	switch mode {
	case ClipOff:
		return 0
	case ClipNorm:
		var sum float64
		for _, v := range g {
			sum += v * v
		}
		norm := math.Sqrt(sum)
		if norm > l && norm > 0 {
			scale := l / norm
			for i := range g {
				g[i] *= scale
			}
			return 1
		}
		return 0
	default: // ClipElementwise, the paper's formula
		// v / max(1, |v|/L) is mathematically sign(v)·L when it fires;
		// ClampAbs computes that exactly (the division can round one ulp
		// past L), maps ±Inf to ±L and does not branch on the element —
		// the same clamp the fused recovery sweep applies
		// (lbfgs.EstimateInto).
		clipped := 0
		for i, v := range g {
			var fired int
			g[i], fired = tensor.ClampAbs(v, l)
			clipped += fired
		}
		return clipped
	}
}
