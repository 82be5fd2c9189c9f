package sign

import (
	"math"
	"testing"

	"fuiov/internal/rng"
)

// randGrad builds a gradient with a mix of clearly-positive, clearly-
// negative and sub-threshold elements.
func randGrad(seed uint64, n int) []float64 {
	r := rng.New(seed)
	g := make([]float64, n)
	for i := range g {
		g[i] = r.NormalScaled(0, 0.01)
	}
	return g
}

// TestCompressIntoMatchesCompress checks the buffer-reusing variant
// produces exactly Compress's packing at every tail length, including
// when the destination is reused across shrinking and growing inputs.
func TestCompressIntoMatchesCompress(t *testing.T) {
	var d Direction
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 100, 1001, 4096} {
		g := randGrad(uint64(n)+1, n)
		want, err := Compress(g, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if err := CompressInto(&d, g, 1e-3); err != nil {
			t.Fatal(err)
		}
		if d.Len() != want.Len() {
			t.Fatalf("n=%d: Len %d, want %d", n, d.Len(), want.Len())
		}
		for i := 0; i < n; i++ {
			if d.At(i) != want.At(i) {
				t.Fatalf("n=%d element %d: %v, want %v", n, i, d.At(i), want.At(i))
			}
		}
		if d.StorageBytes() != want.StorageBytes() {
			t.Fatalf("n=%d: %d bytes, want %d", n, d.StorageBytes(), want.StorageBytes())
		}
	}
	if err := CompressInto(&d, []float64{1}, -1); err == nil {
		t.Error("negative delta should error")
	}
}

// TestCompressIntoReusesBuffer asserts the steady-state compression
// path performs no allocations once the packed buffer has grown.
func TestCompressIntoReusesBuffer(t *testing.T) {
	g := randGrad(3, 4096)
	var d Direction
	if err := CompressInto(&d, g, 1e-3); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := CompressInto(&d, g, 1e-3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("CompressInto allocated %v per run, want 0", allocs)
	}
}

// TestDenseIntoMatchesAt cross-checks the table-driven expansion
// against the per-element accessor on every tail length.
func TestDenseIntoMatchesAt(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1000, 1003} {
		d, err := Compress(randGrad(uint64(n)+77, n), 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, n)
		d.DenseInto(dst)
		for i := range dst {
			if dst[i] != d.At(i) {
				t.Fatalf("n=%d element %d: DenseInto %v, At %v", n, i, dst[i], d.At(i))
			}
		}
	}
}

// TestAccumulateInto checks dst += w·dir is bit-identical to expanding
// the direction and adding elementwise — including the +0.0 result of
// accumulating a zero slot into a −0.0 destination.
func TestAccumulateInto(t *testing.T) {
	const n = 1003
	d, err := Compress(randGrad(5, n), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	base := randGrad(6, n)
	base[0] = math.Copysign(0, -1) // −0.0 + 0.0 must yield +0.0
	for _, w := range []float64{1, -0.5, 2.25} {
		want := make([]float64, n)
		dense := d.Dense()
		for i := range want {
			want[i] = base[i] + w*dense[i]
		}
		got := append([]float64(nil), base...)
		d.AccumulateInto(got, w)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("w=%v element %d: %v (bits %x), want %v (bits %x)",
					w, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// TestScaledMatchesDenseTimesScale checks Scaled against the
// composition it stands for — expand, then multiply every element by
// the scale — bit for bit at every tail length, zero slots' signed
// zeros included.
func TestScaledMatchesDenseTimesScale(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 1003} {
		d, err := Compress(randGrad(uint64(n)+9, n), 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []float64{1, 0.25, -3, 0, 1e-7} {
			want := d.Dense()
			for i := range want {
				want[i] *= scale
			}
			got := d.Scaled(scale)
			if len(got) != n {
				t.Fatalf("n=%d: Scaled has %d elements", n, len(got))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d scale=%v element %d: %v, want %v", n, scale, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAccumulateIntoAllocs pins the saxpy at zero allocations — the
// recovery hot loop depends on it (checked by scripts/check.sh).
func TestAccumulateIntoAllocs(t *testing.T) {
	d, err := Compress(randGrad(7, 4096), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		d.AccumulateInto(dst, 0.5)
	})
	if allocs != 0 {
		t.Errorf("AccumulateInto allocated %v per run, want 0", allocs)
	}
}

// TestAccumulateIntoWrongLengthPanics mirrors DenseInto's contract.
func TestAccumulateIntoWrongLengthPanics(t *testing.T) {
	d, _ := Compress([]float64{1, -1, 0}, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong dst length")
		}
	}()
	d.AccumulateInto(make([]float64, 2), 1)
}

// TestCountNonZeroLUT cross-checks the byte-table count against a
// per-element scan on awkward tail lengths.
func TestCountNonZeroLUT(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 101, 1002} {
		d, err := Compress(randGrad(uint64(n)+13, n), 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for i := 0; i < n; i++ {
			if d.At(i) != 0 {
				want++
			}
		}
		if got := d.CountNonZero(); got != want {
			t.Errorf("n=%d: CountNonZero = %d, want %d", n, got, want)
		}
	}
}

// TestQuadMatchesAt: the four-slot accessor fused kernels walk agrees
// with At on every element, and reads padding slots as 0.
func TestQuadMatchesAt(t *testing.T) {
	for _, n := range []int{1, 3, 4, 5, 1002} {
		d, err := Compress(randGrad(uint64(n)+29, n), 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		for o := 0; o < (n+3)/4; o++ {
			q := d.Quad(o)
			for slot, got := range q {
				want := 0.0
				if i := 4*o + slot; i < n {
					want = d.At(i)
				}
				if got != want {
					t.Errorf("n=%d: Quad(%d)[%d] = %v, want %v", n, o, slot, got, want)
				}
			}
		}
	}
}
