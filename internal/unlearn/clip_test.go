package unlearn

import (
	"math"
	"testing"
	"testing/quick"

	"fuiov/internal/tensor"
)

func TestClipElementwiseKnown(t *testing.T) {
	g := []float64{0.5, -0.5, 2, -3, 0}
	ClipCount(g, 1, ClipElementwise)
	want := []float64{0.5, -0.5, 1, -1, 0}
	if !equal(g, want, 1e-12) {
		t.Errorf("Clip = %v, want %v", g, want)
	}
}

func TestClipElementwiseFixedPointBelowThreshold(t *testing.T) {
	g := []float64{0.3, -0.9, 0.99}
	orig := tensor.CloneVec(g)
	ClipCount(g, 1, ClipElementwise)
	if !equal(g, orig, 0) {
		t.Errorf("values below L must be preserved exactly: %v vs %v", g, orig)
	}
}

func TestClipNorm(t *testing.T) {
	g := []float64{3, 4} // norm 5
	ClipCount(g, 1, ClipNorm)
	if got := tensor.Norm2(g); math.Abs(got-1) > 1e-12 {
		t.Errorf("norm after clip = %v, want 1", got)
	}
	// Direction preserved.
	if math.Abs(g[0]/g[1]-0.75) > 1e-12 {
		t.Errorf("direction changed: %v", g)
	}
	// Below threshold: untouched.
	h := []float64{0.1, 0.1}
	orig := tensor.CloneVec(h)
	ClipCount(h, 1, ClipNorm)
	if !equal(h, orig, 0) {
		t.Errorf("small vector modified: %v", h)
	}
}

func TestClipOff(t *testing.T) {
	g := []float64{100, -200}
	ClipCount(g, 1, ClipOff)
	if g[0] != 100 || g[1] != -200 {
		t.Errorf("ClipOff modified input: %v", g)
	}
}

func TestClipModeString(t *testing.T) {
	if ClipElementwise.String() != "elementwise" ||
		ClipNorm.String() != "norm" || ClipOff.String() != "off" {
		t.Error("mode names wrong")
	}
	if ClipMode(42).String() != "ClipMode(42)" {
		t.Error("unknown mode formatting wrong")
	}
}

// TestClipEdgeCases pins the documented edge-case contract of
// ClipCount (see clip.go): exact bounds at ±L, ±Inf clipping to ±L,
// NaN preservation, zero vectors as fixed points, and norm-exactly-L
// passing unscaled. TestRecoveryEstimatesRespectClipBound's bound
// check depends on every row here.
func TestClipEdgeCases(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	tests := []struct {
		name      string
		mode      ClipMode
		l         float64
		in, want  []float64
		wantCount int
	}{
		{name: "elementwise/zero vector untouched", mode: ClipElementwise, l: 1,
			in: []float64{0, 0, 0}, want: []float64{0, 0, 0}, wantCount: 0},
		{name: "elementwise/exactly at L passes", mode: ClipElementwise, l: 0.5,
			in: []float64{0.5, -0.5}, want: []float64{0.5, -0.5}, wantCount: 0},
		{name: "elementwise/above L lands exactly on ±L", mode: ClipElementwise, l: 0.1,
			in: []float64{0.3, -0.7}, want: []float64{0.1, -0.1}, wantCount: 2},
		{name: "elementwise/+Inf clips to +L", mode: ClipElementwise, l: 1,
			in: []float64{inf, 0.5}, want: []float64{1, 0.5}, wantCount: 1},
		{name: "elementwise/-Inf clips to -L", mode: ClipElementwise, l: 2,
			in: []float64{-inf}, want: []float64{-2}, wantCount: 1},
		{name: "elementwise/NaN preserved, finite neighbours clipped", mode: ClipElementwise, l: 1,
			in: []float64{nan, 3}, want: []float64{nan, 1}, wantCount: 1},
		{name: "norm/zero vector untouched", mode: ClipNorm, l: 1,
			in: []float64{0, 0}, want: []float64{0, 0}, wantCount: 0},
		{name: "norm/exactly L passes unscaled", mode: ClipNorm, l: 5,
			in: []float64{3, 4}, want: []float64{3, 4}, wantCount: 0},
		{name: "norm/above L rescaled once", mode: ClipNorm, l: 5,
			in: []float64{6, 8}, want: []float64{3, 4}, wantCount: 1},
		{name: "norm/NaN poisons the norm, vector untouched", mode: ClipNorm, l: 1,
			in: []float64{nan, 100}, want: []float64{nan, 100}, wantCount: 0},
		{name: "norm/Inf norm exceeds L but scale underflows elements to 0 or NaN",
			mode: ClipNorm, l: 1, in: []float64{inf}, want: []float64{nan}, wantCount: 1},
		{name: "off/everything passes", mode: ClipOff, l: 1,
			in: []float64{inf, nan, -1e300}, want: []float64{inf, nan, -1e300}, wantCount: 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g := tensor.CloneVec(tc.in)
			n := ClipCount(g, tc.l, tc.mode)
			if n != tc.wantCount {
				t.Errorf("ClipCount = %d, want %d", n, tc.wantCount)
			}
			for i := range g {
				same := g[i] == tc.want[i] ||
					(math.IsNaN(g[i]) && math.IsNaN(tc.want[i]))
				if !same {
					t.Errorf("g[%d] = %v, want %v (full: %v)", i, g[i], tc.want[i], g)
				}
			}
			if tc.mode == ClipElementwise {
				for i, v := range g {
					if !math.IsNaN(v) && math.Abs(v) > tc.l {
						t.Errorf("bound violated at %d: |%v| > %v", i, v, tc.l)
					}
				}
			}
		})
	}
}

// Property: after elementwise clipping, every |element| <= L, sign is
// preserved, and magnitude never grows.
func TestClipElementwiseProperty(t *testing.T) {
	f := func(g []float64, lRaw uint8) bool {
		l := 0.01 + float64(lRaw)/16
		for i := range g {
			if math.IsNaN(g[i]) || math.IsInf(g[i], 0) {
				g[i] = 0
			}
		}
		orig := tensor.CloneVec(g)
		ClipCount(g, l, ClipElementwise)
		for i := range g {
			if math.Abs(g[i]) > l*(1+1e-12) {
				return false
			}
			if orig[i] > 0 && g[i] < 0 || orig[i] < 0 && g[i] > 0 {
				return false
			}
			if math.Abs(g[i]) > math.Abs(orig[i])+1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: norm clipping caps the L2 norm at L and is idempotent.
func TestClipNormProperty(t *testing.T) {
	f := func(g []float64, lRaw uint8) bool {
		l := 0.01 + float64(lRaw)/16
		for i := range g {
			if math.IsNaN(g[i]) || math.IsInf(g[i], 0) || math.Abs(g[i]) > 1e100 {
				g[i] = 0
			}
		}
		ClipCount(g, l, ClipNorm)
		if tensor.Norm2(g) > l*(1+1e-9) {
			return false
		}
		once := tensor.CloneVec(g)
		ClipCount(g, l, ClipNorm)
		return equal(g, once, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
