package server

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// countingReader counts the bytes ReadUpload takes off the wire.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzReadUpload: whatever bytes arrive as a POST /v1/round body,
// ReadUpload must not panic, must fail only with ErrBadFrame, and must
// be bounded by the server's own dimension — never by what the frame
// claims: it reads at most one header plus one payload and allocates
// about one dim-sized gradient (the dense reader reads the payload
// straight into it).
// An accepted upload has the server's dimension, a non-negative round
// and a finite, non-negative weight; an accepted sign upload also
// carries the direction it travelled as — dim elements, a finite scale
// — and its Grad is that direction expanded and multiplied by the
// scale, nothing else.
func FuzzReadUpload(f *testing.F) {
	const dim = 10 // not a multiple of 4: the sign payload has a tail byte
	grad := make([]float64, dim)
	for i := range grad {
		grad[i] = float64(i%3-1) * 0.25
	}
	for _, enc := range []Encoding{EncodingDense, EncodingSign} {
		var buf bytes.Buffer
		if err := WriteUpload(&buf, 3, 7, 120, enc, grad, 1e-3, 0.5); err != nil {
			f.Fatal(err)
		}
		frame := buf.Bytes()
		f.Add(frame)
		// Truncated at every header field boundary: magic, encoding,
		// client, round, weight, scale, dim (= the whole header).
		for _, cut := range []int{4, 5, 13, 21, 29, 37, uploadHeaderLen} {
			f.Add(frame[:cut])
		}
		f.Add(frame[:len(frame)-1])
	}
	const maxPayload = 8 * dim
	f.Fuzz(func(t *testing.T, data []byte) {
		var up *Upload
		var err error
		var read int
		decode := func() {
			cr := &countingReader{r: bytes.NewReader(data)}
			up, err = ReadUpload(cr, dim)
			read = cr.n
		}
		// TotalAlloc is process-wide, so take the quietest of three
		// runs; the decode itself is deterministic.
		const allocBound = 2*maxPayload + 1024
		alloc := uint64(math.MaxUint64)
		for try := 0; try < 3 && alloc > allocBound; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			decode()
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if alloc > allocBound {
			t.Fatalf("decoding a %d-byte body allocated %d bytes, bound %d", len(data), alloc, allocBound)
		}
		if read > uploadHeaderLen+maxPayload {
			t.Fatalf("read %d bytes, more than a header and one payload", read)
		}
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("error %v does not wrap ErrBadFrame", err)
			}
			return
		}
		if len(up.Grad) != dim || up.Round < 0 {
			t.Fatalf("accepted upload with %d elements for round %d", len(up.Grad), up.Round)
		}
		if w := up.Weight; math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			t.Fatalf("accepted weight %v", w)
		}
		if (up.Dir != nil) != (up.Encoding == EncodingSign) {
			t.Fatalf("%v upload with Dir = %v", up.Encoding, up.Dir)
		}
		if up.Dir == nil {
			return
		}
		if up.Dir.Len() != dim {
			t.Fatalf("accepted sign upload with a %d-element direction", up.Dir.Len())
		}
		if math.IsNaN(up.Scale) || math.IsInf(up.Scale, 0) {
			t.Fatalf("accepted sign scale %v", up.Scale)
		}
		want := make([]float64, dim)
		up.Dir.DenseInto(want)
		for i := range want {
			want[i] *= up.Scale
			if math.Float64bits(up.Grad[i]) != math.Float64bits(want[i]) {
				t.Fatalf("Grad[%d] = %v, want expand(Dir)·Scale = %v", i, up.Grad[i], want[i])
			}
		}
	})
}
