package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
	"testing/iotest"
)

// TestDenseUploadRoundTrip checks the byte-exactness contract of the
// dense encoding: every float64 bit pattern survives the wire.
func TestDenseUploadRoundTrip(t *testing.T) {
	grad := []float64{0, 1, -1, math.Pi, -math.SmallestNonzeroFloat64, 1e300, -1e-300}
	var buf bytes.Buffer
	if err := WriteUpload(&buf, 42, 7, 123.5, EncodingDense, grad, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Len(), uploadHeaderLen+8*len(grad); got != want {
		t.Fatalf("frame length %d, want %d", got, want)
	}
	up, err := ReadUpload(&buf, len(grad))
	if err != nil {
		t.Fatal(err)
	}
	if up.Client != 42 || up.Round != 7 || up.Weight != 123.5 || up.Encoding != EncodingDense {
		t.Fatalf("header round-trip: %+v", up)
	}
	for i := range grad {
		if math.Float64bits(up.Grad[i]) != math.Float64bits(grad[i]) {
			t.Fatalf("element %d not byte-exact: %v vs %v", i, up.Grad[i], grad[i])
		}
	}
	if up.PayloadBytes != 8*len(grad) {
		t.Fatalf("payload accounting = %d", up.PayloadBytes)
	}
}

// TestDenseReadSplitPayload: the dense payload is read straight into
// the gradient, so a body that arrives a byte at a time, or in odd
// halves, must decode to the same bits as one that arrives whole.
func TestDenseReadSplitPayload(t *testing.T) {
	grad := []float64{math.Pi, -0.0, math.Inf(1), math.NaN(), 1e-310}
	var buf bytes.Buffer
	if err := WriteUpload(&buf, 1, 2, 3, EncodingDense, grad, 0, 1); err != nil {
		t.Fatal(err)
	}
	for name, split := range map[string]func(io.Reader) io.Reader{
		"one byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
	} {
		up, err := ReadUpload(split(bytes.NewReader(buf.Bytes())), len(grad))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range grad {
			if math.Float64bits(up.Grad[i]) != math.Float64bits(grad[i]) {
				t.Fatalf("%s: element %d = %x, want %x", name, i, math.Float64bits(up.Grad[i]), math.Float64bits(grad[i]))
			}
		}
	}
}

// TestSwap8 pins the big-endian host's in-place fix-up: swapping a
// little-endian payload yields the big-endian encoding of the same
// values, and swapping twice restores it.
func TestSwap8(t *testing.T) {
	vals := []float64{math.Pi, -0.0, math.Inf(-1), 1e-310}
	le, be := make([]byte, 8*len(vals)), make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(le[8*i:], math.Float64bits(v))
		binary.BigEndian.PutUint64(be[8*i:], math.Float64bits(v))
	}
	got := bytes.Clone(le)
	swap8(got)
	if !bytes.Equal(got, be) {
		t.Fatalf("swap8(% x) = % x, want % x", le, got, be)
	}
	swap8(got)
	if !bytes.Equal(got, le) {
		t.Fatalf("swap8 twice = % x, want % x", got, le)
	}
}

// TestSignUploadRoundTrip checks the lossy encoding's documented
// semantics: the receiver reconstructs sign(g)·scale with zeros where
// |g| ≤ delta.
func TestSignUploadRoundTrip(t *testing.T) {
	grad := []float64{0.5, -2, 1e-9, 0, 3, -1e-9}
	const delta, scale = 1e-6, 0.25
	var buf bytes.Buffer
	if err := WriteUpload(&buf, 3, 0, 10, EncodingSign, grad, delta, scale); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Len(), uploadHeaderLen+8+(len(grad)+3)/4; got != want {
		t.Fatalf("frame length %d, want %d", got, want)
	}
	up, err := ReadUpload(&buf, len(grad))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{scale, -scale, 0, 0, scale, 0}
	for i := range want {
		if up.Grad[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, up.Grad[i], want[i])
		}
	}
}

// TestSignUploadStopsAtDirection checks the two readers of a sign
// frame against each other: readUpload stops at what travelled — the
// packed direction and the scale, no dense vector — and ReadUpload is
// that plus the expansion. A scale that is not finite is refused before
// the payload is read, on a sign frame only: a dense frame's scale
// field means nothing and keeps being ignored.
func TestSignUploadStopsAtDirection(t *testing.T) {
	grad := []float64{0.5, -2, 1e-9, 0, 3, -1e-9}
	const delta, scale = 1e-6, 0.25
	frame := func(enc Encoding, scale float64) []byte {
		var buf bytes.Buffer
		if err := WriteUpload(&buf, 3, 0, 10, enc, grad, delta, scale); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	up, err := readUpload(bytes.NewReader(frame(EncodingSign, scale)), len(grad), nil)
	if err != nil {
		t.Fatal(err)
	}
	if up.Grad != nil || up.Dir == nil || up.Dir.Len() != len(grad) || up.Scale != scale {
		t.Fatalf("readUpload → Grad %v, Dir %v, Scale %v; want the packed direction and scale only", up.Grad, up.Dir, up.Scale)
	}
	for i, want := range []float64{1, -1, 0, 0, 1, 0} {
		if got := up.Dir.At(i); got != want {
			t.Fatalf("direction element %d = %v, want %v", i, got, want)
		}
	}
	if got, want := up.PayloadBytes, 8+(len(grad)+3)/4; got != want {
		t.Fatalf("payload accounting = %d, want %d", got, want)
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cr := &countingReader{r: bytes.NewReader(frame(EncodingSign, bad))}
		if _, err := ReadUpload(cr, len(grad)); !errors.Is(err, ErrBadFrame) {
			t.Errorf("sign scale %v: err = %v, want ErrBadFrame", bad, err)
		}
		if cr.n != uploadHeaderLen {
			t.Errorf("sign scale %v: read %d bytes, want the %d-byte header only", bad, cr.n, uploadHeaderLen)
		}
		if _, err := ReadUpload(bytes.NewReader(frame(EncodingDense, bad)), len(grad)); err != nil {
			t.Errorf("dense frame with scale %v: %v", bad, err)
		}
	}
}

// TestReadUploadRejects enumerates the malformed frames a reader must
// refuse with ErrBadFrame.
func TestReadUploadRejects(t *testing.T) {
	good := func() *bytes.Buffer {
		var buf bytes.Buffer
		if err := WriteUpload(&buf, 1, 0, 1, EncodingDense, []float64{1, 2, 3}, 0, 1); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	cases := map[string]func() ([]byte, int){
		"bad magic": func() ([]byte, int) {
			b := good().Bytes()
			b[0] = 'X'
			return b, 3
		},
		"dimension mismatch": func() ([]byte, int) {
			return good().Bytes(), 4
		},
		"truncated header": func() ([]byte, int) {
			return good().Bytes()[:10], 3
		},
		"truncated payload": func() ([]byte, int) {
			b := good().Bytes()
			return b[:len(b)-4], 3
		},
		"unknown encoding": func() ([]byte, int) {
			b := good().Bytes()
			b[4] = 0xFF
			return b, 3
		},
	}
	for name, mk := range cases {
		frame, dim := mk()
		if _, err := ReadUpload(bytes.NewReader(frame), dim); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

// TestModelRoundTrip checks the model snapshot frame.
func TestModelRoundTrip(t *testing.T) {
	params := []float64{1.5, -2.25, 0, math.Inf(1)}
	var buf bytes.Buffer
	if err := WriteModel(&buf, 9, params); err != nil {
		t.Fatal(err)
	}
	round, got, err := ReadModel(&buf, len(params))
	if err != nil {
		t.Fatal(err)
	}
	if round != 9 {
		t.Fatalf("round = %d", round)
	}
	for i := range params {
		if math.Float64bits(got[i]) != math.Float64bits(params[i]) {
			t.Fatalf("element %d not byte-exact", i)
		}
	}
	// Wrong expected dimension is rejected before allocation.
	buf.Reset()
	if err := WriteModel(&buf, 0, params); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), buf.Bytes()...)
	if _, _, err := ReadModel(&buf, 3); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("dimension mismatch: %v", err)
	}

	// DecodeModel reads the same frame from memory into caller-owned
	// storage, and rejects a wrong dimension, a truncated or padded
	// payload and a bad magic.
	dst := make([]float64, len(params))
	if round, err := DecodeModel(frame, dst); err != nil || round != 0 {
		t.Fatalf("DecodeModel = (%d, %v)", round, err)
	}
	for i := range params {
		if math.Float64bits(dst[i]) != math.Float64bits(params[i]) {
			t.Fatalf("DecodeModel element %d not byte-exact", i)
		}
	}
	bad := map[string][]byte{
		"short header": frame[:modelHeaderLen-1],
		"truncated":    frame[:len(frame)-1],
		"padded":       append(append([]byte(nil), frame...), 0),
		"magic":        append([]byte("XXXX"), frame[4:]...),
	}
	for name, f := range bad {
		if _, err := DecodeModel(f, dst); !errors.Is(err, ErrBadFrame) {
			t.Errorf("DecodeModel %s: err = %v, want ErrBadFrame", name, err)
		}
	}
	if _, err := DecodeModel(frame, dst[:3]); !errors.Is(err, ErrBadFrame) {
		t.Errorf("DecodeModel dimension mismatch: %v", err)
	}
}

// TestParseEncoding covers the flag/wire name mapping.
func TestParseEncoding(t *testing.T) {
	for s, want := range map[string]Encoding{"dense": EncodingDense, "": EncodingDense, "sign": EncodingSign} {
		got, err := ParseEncoding(s)
		if err != nil || got != want {
			t.Errorf("ParseEncoding(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseEncoding("gzip"); err == nil {
		t.Error("ParseEncoding accepted an unknown name")
	}
	if EncodingDense.String() != "dense" || EncodingSign.String() != "sign" {
		t.Error("Encoding.String names diverge from the wire names")
	}
}
