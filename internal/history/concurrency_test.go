package history

import (
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fuiov/internal/sign"
	"fuiov/internal/telemetry"
)

// TestConcurrentWritersAndReaders exists for `go test -race`: several
// goroutines race to record the next round while reader goroutines
// hammer the lock-free paths (ModelInto, Direction, Weight,
// ParticipantsInto) exactly the way a recovery loop does, with the
// spill tier on so spilled reads race the writer too. Losing writers
// must get clean out-of-order errors; readers must always observe a
// fully-published round.
func TestConcurrentWritersAndReaders(t *testing.T) {
	const (
		dim     = 256
		rounds  = 40
		writers = 4
		readers = 4
		window  = 5
	)
	st, err := NewStore(dim, 1e-3, WithSpill(t.TempDir(), window))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetTelemetry(telemetry.New())

	// Round t's model is the constant vector t, and both participants
	// upload the all-ones gradient, so readers can validate any round
	// they observe without coordinating with writers.
	makeModel := func(tRound int) []float64 {
		m := make([]float64, dim)
		for i := range m {
			m[i] = float64(tRound)
		}
		return m
	}
	grad := make([]float64, dim)
	for i := range grad {
		grad[i] = 1
	}

	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next := st.Rounds()
				if next >= rounds {
					return
				}
				grads := map[ClientID][]float64{1: grad, 2: grad}
				weights := map[ClientID]float64{1: 1, 2: 2}
				err := st.RecordRound(next, makeModel(next), grads, weights)
				if err != nil && !strings.Contains(err.Error(), "out of order") {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, dim)
			var buf []ClientID
			for !stop.Load() {
				n := st.Rounds()
				if n == 0 {
					continue
				}
				for _, tr := range []int{0, n / 2, n - 1} { // spilled, mid, hot
					if err := st.ModelInto(tr, dst); err != nil {
						t.Errorf("ModelInto(%d): %v", tr, err)
						return
					}
					for i := range dst {
						if dst[i] != float64(tr) {
							t.Errorf("round %d model[%d] = %v, want %v", tr, i, dst[i], float64(tr))
							return
						}
					}
					var err error
					buf, err = st.ParticipantsInto(tr, buf)
					if err != nil || len(buf) != 2 {
						t.Errorf("ParticipantsInto(%d) = %v, %v", tr, buf, err)
						return
					}
					d, err := st.Direction(tr, 1)
					if err != nil || !allPositive(d, dim) {
						t.Errorf("Direction(%d, 1): %v", tr, err)
						return
					}
					if w, err := st.Weight(tr, 2); err != nil || w != 2 {
						t.Errorf("Weight(%d, 2) = %v, %v", tr, w, err)
						return
					}
				}
				_ = st.Storage()
				if _, err := st.MembershipOf(1); err != nil && !errors.Is(err, ErrNoRecord) {
					t.Errorf("MembershipOf: %v", err)
					return
				}
			}
		}()
	}
	// Writers finish once all rounds land; then release the readers.
	for st.Rounds() < rounds {
	}
	stop.Store(true)
	wg.Wait()

	if st.Rounds() != rounds {
		t.Fatalf("recorded %d rounds, want %d", st.Rounds(), rounds)
	}
	dst := make([]float64, dim)
	for tr := 0; tr < rounds; tr++ {
		if err := st.ModelInto(tr, dst); err != nil {
			t.Fatal(err)
		}
		for i := range dst {
			if math.Float64bits(dst[i]) != math.Float64bits(float64(tr)) {
				t.Fatalf("round %d model[%d] = %v", tr, i, dst[i])
			}
		}
	}
	rep := st.Storage()
	if want := (rounds - window) * dim * 8; rep.ModelBytesSpilled != want {
		t.Errorf("spilled %d bytes, want %d", rep.ModelBytesSpilled, want)
	}
}

// allPositive reports whether d has n elements, all +1: the direction
// of an all-ones gradient.
func allPositive(d *sign.Direction, n int) bool {
	if d.Len() != n {
		return false
	}
	for i := 0; i < n; i++ {
		if d.At(i) != 1 {
			return false
		}
	}
	return true
}
