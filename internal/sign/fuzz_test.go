package sign

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// FuzzDecode: arbitrary bytes must either fail cleanly or decode into
// a direction that re-encodes to the identical buffer, and FromPacked —
// handed the declared length and the payload — must accept exactly what
// Decode accepts and build the same direction.
func FuzzDecode(f *testing.F) {
	d, _ := Compress([]float64{1, -1, 0, 0.5, -0.5}, 0.4)
	f.Add(d.Encode())
	f.Add([]byte{})
	f.Add(make([]byte, 8))
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir, err := Decode(data)
		if len(data) >= 8 {
			n := int(binary.LittleEndian.Uint64(data))
			owned, ownedErr := FromPacked(n, bytes.Clone(data[8:]))
			if (ownedErr == nil) != (err == nil) {
				t.Fatalf("FromPacked(%d, % x) → %v, Decode → %v", n, data[8:], ownedErr, err)
			}
			if err == nil && !bytes.Equal(owned.Encode(), data) {
				t.Fatalf("FromPacked re-encodes %x as %x", data, owned.Encode())
			}
		}
		if err != nil {
			return
		}
		if got := dir.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("decode/encode not idempotent: %x -> %x", data, got)
		}
		for i := 0; i < dir.Len(); i++ {
			v := dir.At(i)
			if v != -1 && v != 0 && v != 1 {
				t.Fatalf("element %d = %v", i, v)
			}
		}
	})
}

// FuzzSignKernels holds the vector kernels to the portable loops they
// replace: CompressInto must pack exactly compressGo's bytes, and
// AccumulateInto must leave exactly accumulateGo's bits, signed zeros
// included, whichever path the CPU selects. A NaN need only meet a NaN:
// Go leaves unspecified which operand's payload an operation
// propagates, and the Go loop itself propagates a different one when
// built with -race. raw is read as little-endian float64s, the
// compressed gradient and the fold's destination both.
func FuzzSignKernels(f *testing.F) {
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
		1e-3, -1e-3, 2e-3, -0.5, 0.25,
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0xfff8000000000123), // quiet NaN, sign and payload of its own
	}
	for n := 0; n <= 17; n++ {
		g := make([]float64, n)
		for i := range g {
			g[i] = specials[(i+n)%len(specials)]
		}
		raw := floatBytes(g)
		f.Add(raw, 0.0, 0.5)
		f.Add(raw, 1e-3, math.Copysign(0, -1))
		f.Add(raw, math.SmallestNonzeroFloat64, 0.0)
		f.Add(raw, 1e-3, math.NaN())
		f.Add(raw, 0.0, math.Inf(-1))
	}
	g := randGrad(11, 34186)
	for i := 0; i < len(g); i += 97 {
		g[i] = specials[i%len(specials)]
	}
	f.Add(floatBytes(g), 1e-6, 0.37)
	f.Add(floatBytes(g), math.NaN(), 1.0)
	f.Fuzz(func(t *testing.T, raw []byte, delta, w float64) {
		g := make([]float64, len(raw)/8)
		for i := range g {
			g[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		var d Direction
		err := CompressInto(&d, g, delta)
		if CheckThreshold(delta) != nil {
			if err == nil {
				t.Fatalf("CompressInto accepted threshold %v", delta)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, PackedLen(len(g)))
		compressGo(want, g, delta)
		if !bytes.Equal(d.packed, want) {
			t.Fatalf("n=%d delta=%v: CompressInto packed % x, compressGo % x", len(g), delta, d.packed, want)
		}
		got, ref := slices.Clone(g), slices.Clone(g)
		d.AccumulateInto(got, w)
		accumulateGo(ref, want, w)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) && !(math.IsNaN(got[i]) && math.IsNaN(ref[i])) {
				t.Fatalf("n=%d w=%v element %d: AccumulateInto %x, accumulateGo %x",
					len(g), w, i, math.Float64bits(got[i]), math.Float64bits(ref[i]))
			}
		}
	})
}

func floatBytes(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}
