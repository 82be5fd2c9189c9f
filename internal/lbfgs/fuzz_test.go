package lbfgs

import (
	"math"
	"testing"

	"fuiov/internal/tensor"
)

// FuzzPairBufferPush drives a PairBuffer through an arbitrary byte-
// derived op sequence (pushes with matching, mismatched and wrong
// dimensions, interleaved resets) against a naive reference model of
// "the last capacity accepted pairs", checking after every op that
//
//   - Push errors exactly when the documented contract says it must,
//     and never panics;
//   - Len/Full track the reference window;
//   - the buffer copies its inputs: the caller scribbling over a
//     pushed slice never changes what Build sees (this is the guard on
//     the eviction fast path, which recycles the oldest pair's backing
//     arrays in place);
//   - Build agrees bitwise with New() over the reference window.
func FuzzPairBufferPush(f *testing.F) {
	f.Add(uint8(2), uint8(3), []byte{4, 1, 2, 3, 4, 5, 6, 5, 6, 7, 8, 9, 10})
	f.Add(uint8(1), uint8(1), []byte{0, 1, 2, 3})
	f.Add(uint8(7), uint8(2), []byte{2, 9, 9, 9, 9, 3, 1, 2, 3, 4})
	f.Add(uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, capRaw, dimRaw uint8, data []byte) {
		capacity := int(capRaw)%4 + 1
		dim := int(dimRaw)%4 + 1
		p, err := NewPairBuffer(capacity)
		if err != nil {
			t.Fatalf("NewPairBuffer(%d): %v", capacity, err)
		}
		// takeFloats consumes n bytes as small signed fixed-point
		// values; false when data runs dry.
		takeFloats := func(n int) ([]float64, bool) {
			if len(data) < n {
				return nil, false
			}
			out := make([]float64, n)
			for i := 0; i < n; i++ {
				out[i] = float64(int8(data[i])) / 16
			}
			data = data[n:]
			return out, true
		}
		var refW, refG [][]float64
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			if op%8 == 2 {
				p.Reset()
				refW, refG = nil, nil
				continue
			}
			dwLen, dgLen := dim, dim
			switch op % 8 {
			case 0:
				dwLen, dgLen = dim+1, dim+1 // wrong dimension vs buffer
			case 1:
				dgLen = dim - 1 // dw/dg mismatch (may be empty)
			}
			dw, ok := takeFloats(dwLen)
			if !ok {
				break
			}
			dg, ok := takeFloats(dgLen)
			if !ok {
				break
			}
			err := p.Push(dw, dg)
			wantErr := len(dw) != len(dg) ||
				(len(refW) > 0 && len(refW[0]) != len(dw))
			if (err != nil) != wantErr {
				t.Fatalf("Push(%d,%d) with window dim %d: err = %v, wantErr %v",
					len(dw), len(dg), refDim(refW), err, wantErr)
			}
			if err == nil {
				refW = append(refW, tensor.CloneVec(dw))
				refG = append(refG, tensor.CloneVec(dg))
				if len(refW) > capacity {
					refW, refG = refW[1:], refG[1:]
				}
				// Scribble over the caller's slices: the buffer must
				// have copied them.
				for i := range dw {
					dw[i], dg[i] = math.NaN(), -1e300
				}
			}
			if p.Len() != len(refW) || p.Capacity() != capacity || p.Full() != (len(refW) == capacity) {
				t.Fatalf("window drifted: Len=%d Full=%v, reference holds %d of %d",
					p.Len(), p.Full(), len(refW), capacity)
			}
		}
		got, errGot := p.Build()
		if len(refW) == 0 {
			if errGot == nil {
				t.Fatal("Build on empty buffer did not error")
			}
			return
		}
		want, errWant := New(refW, refG)
		if (errGot != nil) != (errWant != nil) {
			t.Fatalf("Build err = %v, New over reference window err = %v", errGot, errWant)
		}
		if errGot != nil {
			return
		}
		if got.sigma != want.sigma && !(math.IsNaN(got.sigma) && math.IsNaN(want.sigma)) {
			t.Fatalf("sigma %v, reference %v", got.sigma, want.sigma)
		}
		v := make([]float64, got.Dim())
		for i := range v {
			v[i] = 1
		}
		hg, err1 := got.HVP(v)
		hw, err2 := want.HVP(v)
		if (err1 != nil) != (err2 != nil) {
			t.Fatalf("HVP err = %v, reference %v", err1, err2)
		}
		for i := range hg {
			if math.Float64bits(hg[i]) != math.Float64bits(hw[i]) {
				t.Fatalf("HVP[%d] = %v, reference %v", i, hg[i], hw[i])
			}
		}
	})
}

func refDim(refW [][]float64) int {
	if len(refW) == 0 {
		return -1
	}
	return len(refW[0])
}
