package sign

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"fuiov/internal/rng"
)

func TestCompressKnown(t *testing.T) {
	g := []float64{0.5, -0.5, 1e-9, 0, -1e-9, 2, -3}
	d, err := Compress(g, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -1, 0, 0, 0, 1, -1}
	got := d.Dense()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("element %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCompressThresholdBoundary(t *testing.T) {
	// Exactly delta encodes as 0 (the paper maps (−δ, δ) and the
	// boundary to 0).
	d, err := Compress([]float64{0.1, -0.1, 0.1000001, -0.1000001}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 1, -1}
	for i, w := range want {
		if got := d.At(i); got != w {
			t.Errorf("element %d = %v, want %v", i, got, w)
		}
	}
}

func TestCompressNegativeDelta(t *testing.T) {
	if _, err := Compress([]float64{1}, -0.5); err == nil {
		t.Error("negative delta should error")
	}
}

// TestCompressNonFiniteDelta: a NaN threshold compares false against
// every element and +Inf exceeds none, so either would silently store
// an all-zero direction; both are rejected like a negative one.
func TestCompressNonFiniteDelta(t *testing.T) {
	for _, delta := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if d, err := Compress([]float64{5, -5, 0.1}, delta); err == nil {
			t.Errorf("delta %v accepted: %d non-zero elements", delta, d.CountNonZero())
		}
	}
}

func TestZeroDeltaKeepsAllSigns(t *testing.T) {
	d, err := Compress([]float64{0.001, -0.001, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.At(0) != 1 || d.At(1) != -1 || d.At(2) != 0 {
		t.Errorf("got %v", d.Dense())
	}
}

func TestPackingDensity(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 100, 1001} {
		g := make([]float64, n)
		d, err := Compress(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := (n + 3) / 4
		if d.StorageBytes() != want {
			t.Errorf("n=%d: %d bytes, want %d", n, d.StorageBytes(), want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 50; trial++ {
		n := r.IntN(200)
		g := make([]float64, n)
		for i := range g {
			g[i] = r.NormalScaled(0, 1)
		}
		d, err := Compress(g, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(d.Encode())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Len() != d.Len() {
			t.Fatalf("trial %d: len %d, want %d", trial, got.Len(), d.Len())
		}
		for i := 0; i < n; i++ {
			if got.At(i) != d.At(i) {
				t.Fatalf("trial %d element %d mismatch", trial, i)
			}
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"short":        {1, 2, 3},
		"lengthExceed": append(make([]byte, 8), 0xFF, 0xFF), // says n=0 but has payload
	}
	for name, buf := range cases {
		if _, err := Decode(buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// Invalid 0b11 code in a valid-length buffer.
	d, _ := Compress([]float64{1, -1, 0, 1}, 0)
	enc := d.Encode()
	enc[8] |= 0b11 << 4 // corrupt slot 2
	if _, err := Decode(enc); !errors.Is(err, ErrCorrupt) {
		t.Errorf("invalid code: err = %v, want ErrCorrupt", err)
	}
	// Non-zero trailing slots.
	d2, _ := Compress([]float64{1}, 0)
	enc2 := d2.Encode()
	enc2[8] |= codePos << 2 // slot 1 should be empty
	if _, err := Decode(enc2); !errors.Is(err, ErrCorrupt) {
		t.Errorf("dirty padding: err = %v, want ErrCorrupt", err)
	}
}

// TestFromPackedTakesOwnership: the constructor validates in place and
// the direction aliases the slice it was given — no copy — while Decode
// keeps copying, so its result never aliases the caller's buffer.
func TestFromPackedTakesOwnership(t *testing.T) {
	src, _ := Compress([]float64{1, -1, 0, 1, -1}, 0)
	enc := src.Encode()
	packed := append([]byte(nil), enc[8:]...)
	d, err := FromPacked(src.Len(), packed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Encode(), enc) {
		t.Fatalf("FromPacked re-encodes to %x, want %x", d.Encode(), enc)
	}
	packed[0] = codeNeg // element 0: +1 → −1, visible through the alias
	if got := d.At(0); got != -1 {
		t.Errorf("direction does not alias its payload: element 0 = %v after the write", got)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc[8] = codeNeg
	if got := dec.At(0); got != 1 {
		t.Errorf("Decode aliases its input: element 0 = %v after the write", got)
	}
	for name, c := range map[string]struct {
		n      int
		packed []byte
	}{
		"negative length": {-1, nil},
		"short payload":   {5, []byte{0}},
		"long payload":    {4, []byte{0, 0}},
		"reserved code":   {4, []byte{0b11 << 2}},
		"dirty padding":   {1, []byte{codePos << 2}},
	} {
		if _, err := FromPacked(c.n, c.packed); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestDenseInto(t *testing.T) {
	d, _ := Compress([]float64{1, -2, 0}, 0.5)
	dst := make([]float64, 3)
	d.DenseInto(dst)
	if dst[0] != 1 || dst[1] != -1 || dst[2] != 0 {
		t.Errorf("DenseInto = %v", dst)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong dst length")
		}
	}()
	d.DenseInto(make([]float64, 2))
}

func TestAtOutOfRangePanics(t *testing.T) {
	d, _ := Compress([]float64{1}, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	d.At(1)
}

func TestCountNonZero(t *testing.T) {
	d, _ := Compress([]float64{5, -5, 0.0001, -0.0001, 0}, 0.001)
	if got := d.CountNonZero(); got != 2 {
		t.Errorf("CountNonZero = %d, want 2", got)
	}
}

func TestCountNonZeroMonotonicInDelta(t *testing.T) {
	// Property: raising delta never increases the surviving elements.
	r := rng.New(2)
	g := make([]float64, 500)
	for i := range g {
		g[i] = r.NormalScaled(0, 0.01)
	}
	prev := len(g) + 1
	for _, delta := range []float64{0, 1e-4, 1e-3, 1e-2, 1e-1} {
		d, err := Compress(g, delta)
		if err != nil {
			t.Fatal(err)
		}
		nz := d.CountNonZero()
		if nz > prev {
			t.Fatalf("delta=%v: nonzero grew from %d to %d", delta, prev, nz)
		}
		prev = nz
	}
}

func TestSavings(t *testing.T) {
	if got := Savings(64); math.Abs(got-0.96875) > 1e-12 {
		t.Errorf("Savings(64) = %v, want 0.96875", got)
	}
	if got := Savings(32); math.Abs(got-0.9375) > 1e-12 {
		t.Errorf("Savings(32) = %v, want 0.9375", got)
	}
	if got := Savings(0); got != 0 {
		t.Errorf("Savings(0) = %v, want 0", got)
	}
}

// Property: compression output values are always in {-1, 0, +1}, agree
// with the sign definition, and round-trip through Encode/Decode.
func TestCompressProperty(t *testing.T) {
	f := func(g []float64, deltaRaw uint8) bool {
		delta := float64(deltaRaw) / 255 // delta in [0,1]
		for i := range g {
			if math.IsNaN(g[i]) {
				g[i] = 0
			}
		}
		d, err := Compress(g, delta)
		if err != nil {
			return false
		}
		for i, v := range g {
			want := 0.0
			if v > delta {
				want = 1
			} else if v < -delta {
				want = -1
			}
			if d.At(i) != want {
				return false
			}
		}
		rt, err := Decode(d.Encode())
		if err != nil || rt.Len() != d.Len() {
			return false
		}
		for i := 0; i < d.Len(); i++ {
			if rt.At(i) != d.At(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
