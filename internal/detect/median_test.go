package detect

import (
	"math"
	"testing"

	"fuiov/internal/history"
)

func gradsFixture() map[history.ClientID][]float64 {
	return map[history.ClientID][]float64{
		1: {1, 10},
		2: {2, 20},
		3: {3, 30},
		4: {4, 40},
		5: {100, -100}, // outlier / Byzantine
	}
}

func TestMedian(t *testing.T) {
	got, err := median(gradsFixture())
	if err != nil {
		t.Fatal(err)
	}
	if !equal(got, []float64{3, 20}, 1e-12) {
		t.Errorf("median = %v, want [3 20]", got)
	}
	// Even count.
	even := map[history.ClientID][]float64{1: {1}, 2: {2}, 3: {3}, 4: {10}}
	got, err = median(even)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2.5 {
		t.Errorf("even median = %v, want 2.5", got[0])
	}
	if _, err := median(nil); err == nil {
		t.Error("empty input should error")
	}
}

func TestMedianIgnoresOutlier(t *testing.T) {
	clean := map[history.ClientID][]float64{1: {1}, 2: {1.1}, 3: {0.9}}
	dirty := map[history.ClientID][]float64{1: {1}, 2: {1.1}, 3: {0.9}, 4: {1e9}, 5: {0.95}}
	a, _ := median(clean)
	b, _ := median(dirty)
	if math.Abs(a[0]-b[0]) > 0.2 {
		t.Errorf("outlier moved the median from %v to %v", a[0], b[0])
	}
}

// equal reports whether a and b have the same length and every pair of
// elements differs by at most tol.
func equal(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
