package lbfgs

import (
	"fmt"
	"math"
	"testing"

	"fuiov/internal/tensor"
)

// FuzzPairBufferPush drives a PairBuffer through an arbitrary byte-
// derived op sequence (copying pushes with matching, mismatched and
// wrong dimensions, aliasing pushes of a shared Column into Slot
// storage, resets, releases of built approximations) against a naive
// reference model of "the last capacity accepted pairs", building after
// every accepted push and keeping every Approx until the sequence
// releases it. After every op it checks that
//
//   - Push and PushSlot error exactly when the documented contract says
//     they must, and never panic;
//   - Len/Full track the reference window;
//   - Push copies its inputs: the caller scribbling over a pushed slice
//     never changes what Build sees;
//   - Build succeeds or fails exactly as New over the reference window
//     does, and agrees with it bitwise (NaN sigmas and HVP errors
//     included);
//   - every kept Approx still answers HVP bit-identically to New over a
//     clone of its window taken when it was built — through evictions,
//     storage recycled after releases, and failed Builds.
func FuzzPairBufferPush(f *testing.F) {
	f.Add(uint8(2), uint8(3), []byte{4, 1, 2, 3, 4, 5, 6, 5, 6, 7, 8, 9, 10})
	f.Add(uint8(1), uint8(1), []byte{0, 1, 2, 3})
	f.Add(uint8(7), uint8(2), []byte{2, 9, 9, 9, 9, 3, 1, 2, 3, 4})
	f.Add(uint8(0), uint8(0), []byte{})
	// Shared pushes and releases: eviction, recycling, and a zero-
	// curvature (failing) Build in the middle.
	f.Add(uint8(1), uint8(1), []byte{4, 16, 32, 6, 16, 16, 3, 4, 16, 0, 3, 12, 8, 8, 3, 6, 4, 2, 12, 9, 9})
	// One-pair window, copying pushes, nothing released: each push
	// evicts storage the kept Approx still aliases.
	f.Add(uint8(0), uint8(1), []byte{6, 16, 16, 16, 16, 6, 32, 16, 16, 32, 6, 16, 48, 48, 16, 6, 16, 16, 16, 16})
	f.Fuzz(func(t *testing.T, capRaw, dimRaw uint8, data []byte) {
		capacity := int(capRaw)%4 + 1
		dim := int(dimRaw)%4 + 1
		p, err := NewPairBuffer(capacity)
		if err != nil {
			t.Fatalf("NewPairBuffer(%d): %v", capacity, err)
		}
		// takeFloats consumes n bytes as small signed fixed-point
		// values into dst (fresh when nil); false when data runs dry.
		takeFloats := func(dst []float64, n int) ([]float64, bool) {
			if len(data) < n {
				return nil, false
			}
			if dst == nil {
				dst = make([]float64, n)
			}
			for i := 0; i < n; i++ {
				dst[i] = float64(int8(data[i])) / 16
			}
			data = data[n:]
			return dst, true
		}
		// kept is a built Approx and the HVP (and its error) of New
		// over the window cloned at build time.
		type kept struct {
			a       *Approx
			want    []float64
			wantErr error
		}
		var refW, refG [][]float64
		var live []kept
		ones := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = 1
			}
			return v
		}
		// sameHVP fails unless a's HVP errors exactly when the
		// reference's did and otherwise matches it bit for bit.
		sameHVP := func(what string, l kept) {
			t.Helper()
			got, err := l.a.HVP(ones(l.a.Dim()))
			if (err != nil) != (l.wantErr != nil) {
				t.Fatalf("%s: HVP err = %v, reference %v", what, err, l.wantErr)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(l.want[i]) {
					t.Fatalf("%s: HVP[%d] = %v, reference %v", what, i, got[i], l.want[i])
				}
			}
		}
		checkLive := func(after string) {
			t.Helper()
			for k, l := range live {
				sameHVP(fmt.Sprintf("after %s: kept Approx %d", after, k), l)
			}
		}
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			switch op % 8 {
			case 2:
				p.Reset()
				refW, refG = nil, nil
				checkLive("Reset")
				continue
			case 3:
				if len(live) > 0 {
					live[0].a.Release()
					live = live[1:]
				}
				checkLive("Release")
				continue
			}
			dwLen, dgLen := dim, dim
			switch op % 8 {
			case 0, 5:
				dwLen, dgLen = dim+1, dim+1 // wrong dimension vs buffer
			case 1:
				dgLen = dim - 1 // dw/dg mismatch (may be empty)
			}
			shared := op%8 == 4 || op%8 == 5
			var dw, dg []float64
			var col *Column
			ok := true
			if shared {
				col = NewColumn(dwLen)
				_, ok = takeFloats(col.Vec(), dwLen)
				if ok {
					dw = col.Vec()
					dg, ok = takeFloats(p.Slot(dgLen), dgLen)
				}
			} else if dw, ok = takeFloats(nil, dwLen); ok {
				dg, ok = takeFloats(nil, dgLen)
			}
			if !ok {
				break
			}
			if shared {
				err = p.PushSlot(col)
			} else {
				err = p.Push(dw, dg)
			}
			wantErr := len(dw) != len(dg) ||
				(len(refW) > 0 && len(refW[0]) != len(dw))
			if (err != nil) != wantErr {
				t.Fatalf("push(%d,%d) shared=%v with window dim %d: err = %v, wantErr %v",
					len(dw), len(dg), shared, refDim(refW), err, wantErr)
			}
			if err == nil {
				refW = append(refW, tensor.CloneVec(dw))
				refG = append(refG, tensor.CloneVec(dg))
				if len(refW) > capacity {
					refW, refG = refW[1:], refG[1:]
				}
				if !shared {
					// Scribble over the caller's slices: Push must have
					// copied them. (PushSlot aliases; its vectors are
					// immutable by contract.)
					for i := range dw {
						dw[i], dg[i] = math.NaN(), -1e300
					}
				}
				got, errGot := p.Build()
				want, errWant := New(refW, refG)
				if (errGot != nil) != (errWant != nil) {
					t.Fatalf("Build err = %v, New over reference window err = %v", errGot, errWant)
				}
				if errGot == nil {
					if got.sigma != want.sigma && !(math.IsNaN(got.sigma) && math.IsNaN(want.sigma)) {
						t.Fatalf("sigma %v, reference %v", got.sigma, want.sigma)
					}
					hw, errHW := want.HVP(ones(want.Dim()))
					l := kept{got, hw, errHW}
					sameHVP("Build", l)
					live = append(live, l)
				}
			}
			if p.Len() != len(refW) || p.capacity != capacity || p.Full() != (len(refW) == capacity) {
				t.Fatalf("window drifted: Len=%d Full=%v, reference holds %d of %d",
					p.Len(), p.Full(), len(refW), capacity)
			}
			checkLive("push")
		}
		if _, err := p.Build(); len(refW) == 0 && err == nil {
			t.Fatal("Build on empty buffer did not error")
		}
	})
}

func refDim(refW [][]float64) int {
	if len(refW) == 0 {
		return -1
	}
	return len(refW[0])
}
