// Package sign implements the paper's gradient-direction storage
// scheme (§IV, addressing Challenge I): every gradient element is
// reduced to its thresholded sign — +1 if the element exceeds δ, −1 if
// it is below −δ, and 0 otherwise — and the resulting ternary vector
// is packed at 2 bits per element.
//
// Storing the direction instead of a float64 gradient shrinks server
// state by a factor of 32 (2 bits vs 64), the "approximately 95% of
// storage overhead" headline of the paper; exact accounting lives in
// Savings and in internal/history.
//
// The codec operates on whole bytes, not elements: compression emits
// one packed byte per four inputs through a branch-free encoder, and
// every decode-side path (DenseInto, Scaled, AccumulateInto, FromPacked
// validation) walks a 256-entry lookup table that resolves four
// elements per step without per-element branches. The recovery hot
// loop (lbfgs.EstimateInto, driven by internal/unlearn) reads
// directions four elements at a time through Quad, inside its own
// sweep, and never materialises a dense vector at all.
//
// The two loops the RSU runs on every upload — compressing a dense
// gradient and folding a packed direction into a shard sum — have AVX2
// bodies on amd64, chosen by the shared CPU probe (internal/cpuid).
// compressGo and accumulateGo are the portable loops: they finish the
// tail the vector bodies leave, run everything on other CPUs, and are
// the oracle the differential tests hold the vector bodies to, bit for
// bit.
package sign

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"fuiov/internal/cpuid"
)

// Direction is a packed ternary vector: each element stores one of
// {-1, 0, +1} in 2 bits, 4 elements per byte.
type Direction struct {
	n      int
	packed []byte
}

// Element encodings within a 2-bit slot.
const (
	codeZero = 0b00
	codePos  = 0b01
	codeNeg  = 0b10
)

// Byte-granular decode tables, built once at init:
//
//   - denseLUT[b] is the four float64 elements encoded by packed byte
//     b (slot 0 in the low bits), so expansion touches the table once
//     per four elements;
//   - invalidLUT[b] reports whether b contains the unused 0b11 code.
//
// Trailing padding slots are always codeZero (Compress writes them so,
// Decode rejects anything else), which is exactly the encoding of 0 —
// the tables are therefore safe to apply to a Direction's final,
// partially-filled byte.
var (
	denseLUT   [256][4]float64
	invalidLUT [256]bool
)

func init() {
	codeVal := [4]float64{codeZero: 0, codePos: 1, codeNeg: -1, 0b11: 0}
	for b := 0; b < 256; b++ {
		for slot := 0; slot < 4; slot++ {
			code := (b >> uint(2*slot)) & 0b11
			denseLUT[b][slot] = codeVal[code]
			if code == 0b11 {
				invalidLUT[b] = true
			}
		}
	}
}

// ErrCorrupt is returned by Decode when a packed buffer contains an
// invalid 2-bit code or inconsistent length.
var ErrCorrupt = errors.New("sign: corrupt direction encoding")

// code returns the 2-bit encoding of one element: codePos above delta,
// codeNeg below negDelta (the caller-hoisted −delta), codeZero between
// (NaN maps to codeZero, as both comparisons fail). The constant-1
// conditional assignments compile to flag materialisations (SETcc),
// not data-dependent branches — random gradient signs would mispredict
// a branch every other element — so the packing loop runs at a steady
// four elements per output byte.
func code(v, delta, negDelta float64) byte {
	var pos, neg byte
	if v > delta {
		pos = 1
	}
	if v < negDelta {
		neg = 1
	}
	return pos | neg<<1
}

// CheckThreshold reports whether delta is usable as a compression
// threshold: finite and non-negative. Every comparison against NaN is
// false and nothing exceeds +Inf, so either would silently store an
// all-zero direction for every gradient.
func CheckThreshold(delta float64) error {
	if math.IsNaN(delta) || math.IsInf(delta, 0) || delta < 0 {
		return fmt.Errorf("sign: threshold %v is not finite and non-negative", delta)
	}
	return nil
}

// Compress reduces g to its thresholded direction: +1 where
// g[i] > delta, −1 where g[i] < −delta, 0 otherwise. delta must be
// finite and non-negative (CheckThreshold). This is the element
// definition given in §IV of the paper ("the direction of a gradient
// element [is] 1 when it is greater than a threshold δ, −1 when it is
// less than the threshold −δ, and 0 when it is between").
func Compress(g []float64, delta float64) (*Direction, error) {
	d := &Direction{}
	if err := CompressInto(d, g, delta); err != nil {
		return nil, err
	}
	return d, nil
}

// CompressInto is Compress writing into d, reusing d's packed buffer
// when its capacity suffices — the allocation-free variant for callers
// that compress round after round (the RSU write path, benchmarks).
// d's previous contents are fully overwritten.
func CompressInto(d *Direction, g []float64, delta float64) error {
	if err := CheckThreshold(delta); err != nil {
		return err
	}
	want := PackedLen(len(g))
	if cap(d.packed) < want {
		d.packed = make([]byte, want)
	} else {
		d.packed = d.packed[:want]
	}
	d.n = len(g)
	packed := d.packed
	if cpuid.AVX2 {
		// Whole 8-element blocks, two packed bytes each.
		n := len(g) &^ 7
		compressAVX2(packed[:n/4], g[:n], delta, -delta)
		packed, g = packed[n/4:], g[n:]
	}
	compressGo(packed, g, delta)
	return nil
}

// compressGo is the portable compression loop: packed[o] receives
// elements 4o..4o+3 of g, the final partial byte zero-padded.
func compressGo(packed []byte, g []float64, delta float64) {
	negDelta := -delta
	i, o := 0, 0
	for ; i+4 <= len(g); i, o = i+4, o+1 {
		packed[o] = code(g[i], delta, negDelta) |
			code(g[i+1], delta, negDelta)<<2 |
			code(g[i+2], delta, negDelta)<<4 |
			code(g[i+3], delta, negDelta)<<6
	}
	if i < len(g) {
		var b byte
		for s := uint(0); i < len(g); i, s = i+1, s+2 {
			b |= code(g[i], delta, negDelta) << s
		}
		packed[o] = b
	}
}

// Len returns the number of elements.
func (d *Direction) Len() int { return d.n }

// At returns element i as a float64 in {-1, 0, +1}.
func (d *Direction) At(i int) float64 {
	if i < 0 || i >= d.n {
		panic(fmt.Sprintf("sign: index %d out of range [0,%d)", i, d.n))
	}
	return denseLUT[d.packed[i/4]][i%4]
}

// DenseInto writes the expanded direction into dst, which must have
// length Len, expanding four elements per lookup-table hit.
func (d *Direction) DenseInto(dst []float64) {
	if len(dst) != d.n {
		panic(fmt.Sprintf("sign: DenseInto dst length %d, want %d", len(dst), d.n))
	}
	full := d.n / 4
	for o := 0; o < full; o++ {
		*(*[4]float64)(dst[o*4:]) = denseLUT[d.packed[o]]
	}
	for i := full * 4; i < d.n; i++ {
		dst[i] = denseLUT[d.packed[i/4]][i%4]
	}
}

// Scaled expands the direction to scale·{-1, 0, +1}: the dense vector a
// sign upload (direction, scale) stands for, and the one definition of
// it — the wire reader's Upload.Grad and the round engine's fallback
// for an aggregator that cannot fold packed both call this.
func (d *Direction) Scaled(scale float64) []float64 {
	out := make([]float64, d.n)
	full := d.n / 4
	for o := 0; o < full; o++ {
		lut := &denseLUT[d.packed[o]]
		j := o * 4
		out[j] = scale * lut[0]
		out[j+1] = scale * lut[1]
		out[j+2] = scale * lut[2]
		out[j+3] = scale * lut[3]
	}
	for i := full * 4; i < d.n; i++ {
		out[i] = scale * denseLUT[d.packed[i/4]][i%4]
	}
	return out
}

// AccumulateInto adds w times the direction to dst (length Len): a
// fused weighted ±1 saxpy straight off the packed representation, for
// callers that add a direction to a finished vector without
// materialising it dense.
// Zero slots contribute w·0 = +0.0, keeping the result bit-identical
// to expanding the direction and adding it elementwise (w must be
// finite for that identity to hold).
func (d *Direction) AccumulateInto(dst []float64, w float64) {
	if len(dst) != d.n {
		panic(fmt.Sprintf("sign: AccumulateInto dst length %d, want %d", len(dst), d.n))
	}
	packed := d.packed
	if cpuid.AVX2 {
		// Every whole packed byte; the partial final one stays in Go.
		n := len(dst) &^ 3
		accumulateAVX2(dst[:n], packed[:n/4], w)
		dst, packed = dst[n:], packed[n/4:]
	}
	accumulateGo(dst, packed, w)
}

// accumulateGo is the portable fold: dst[i] += w·(element i of packed).
// The explicit float64 conversion rounds the product before the add:
// without it the compiler may fuse the two into one FMA (it does on
// arm64), and the bits would differ from the vector body's.
func accumulateGo(dst []float64, packed []byte, w float64) {
	full := len(dst) / 4
	for o := 0; o < full; o++ {
		lut := &denseLUT[packed[o]]
		j := o * 4
		dst[j] += float64(w * lut[0])
		dst[j+1] += float64(w * lut[1])
		dst[j+2] += float64(w * lut[2])
		dst[j+3] += float64(w * lut[3])
	}
	for i := full * 4; i < len(dst); i++ {
		dst[i] += float64(w * denseLUT[packed[i/4]][i%4])
	}
}

// Quad returns elements 4o..4o+3 — the four slots of packed byte o,
// 0 ≤ o < (Len+3)/4 — for kernels that fuse the direction into a sweep
// of their own instead of calling AccumulateInto over a finished
// vector. Padding slots of the final byte read as 0. The result points
// into the shared decode table (copying the 32 bytes out per step costs
// the fused recovery sweep a fifth of its time): read-only.
func (d *Direction) Quad(o int) *[4]float64 { return &denseLUT[d.packed[o]] }

// StorageBytes reports the packed size in bytes (excluding the
// constant-size length header used by Encode).
func (d *Direction) StorageBytes() int { return len(d.packed) }

// Encode serialises the direction as an 8-byte little-endian length
// followed by the packed payload.
func (d *Direction) Encode() []byte {
	out := make([]byte, 8+len(d.packed))
	binary.LittleEndian.PutUint64(out, uint64(d.n))
	copy(out[8:], d.packed)
	return out
}

// Decode parses a buffer produced by Encode: the length header, then
// FromPacked over the payload, copied once it is known to be valid so
// the direction never aliases buf.
func Decode(buf []byte) (*Direction, error) {
	if len(buf) < 8 {
		return nil, ErrCorrupt
	}
	n := binary.LittleEndian.Uint64(buf)
	if n > uint64(4*(len(buf)-8)) { // also keeps int(n) in range
		return nil, ErrCorrupt
	}
	d, err := FromPacked(int(n), buf[8:])
	if err != nil {
		return nil, err
	}
	d.packed = append([]byte(nil), d.packed...)
	return d, nil
}

// FromPacked builds the n-element direction whose 2-bit payload is
// packed, taking ownership of the slice: the direction aliases it, so
// the caller must not write to it afterwards. It is the constructor for
// a reader that received the payload straight into its final storage
// (the RSU's upload handler). Validation is whole-byte and in place: a
// 256-entry table flags the unused 0b11 code four slots at a time, and
// the final byte's padding slots must decode to zero.
func FromPacked(n int, packed []byte) (*Direction, error) {
	if n < 0 || len(packed) != PackedLen(n) {
		return nil, ErrCorrupt
	}
	for _, b := range packed {
		if invalidLUT[b] {
			return nil, ErrCorrupt
		}
	}
	if tail := n % 4; tail != 0 {
		// Slots tail..3 of the final byte are padding and must be zero.
		if packed[len(packed)-1]>>uint(2*tail) != 0 {
			return nil, ErrCorrupt
		}
	}
	return &Direction{n: n, packed: packed}, nil
}

// PackedLen is the payload size in bytes of an n-element direction.
func PackedLen(n int) int { return (n + 3) / 4 }

// Savings reports the storage ratio saved by direction encoding
// relative to storing fullBits-per-element floats (e.g. 64 for float64,
// 32 for float32). The paper's "~95%" corresponds to float32 baselines:
// 1 - 2/32 = 93.75%, and 1 - 2/64 = 96.9% for float64.
func Savings(fullBits int) float64 {
	if fullBits <= 0 {
		return 0
	}
	return 1 - 2/float64(fullBits)
}
