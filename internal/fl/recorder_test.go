package fl_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"fuiov/internal/detect"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/unlearn/strategy"
)

// TestRecordersDoNotRetainGradients holds every fl.Recorder to the
// contract the engine's buffer reuse relies on: nothing handed to
// RecordRound is read after it returns. Each recorder runs twice over
// the same four rounds — once handed copies, once handed buffers that
// are overwritten (and their maps emptied) as soon as the call returns —
// and both must end in the same state.
func TestRecordersDoNotRetainGradients(t *testing.T) {
	const dim, clients, rounds = 12, 5, 4
	cases := []struct {
		name  string
		new   func() fl.Recorder
		state func(fl.Recorder) any
	}{
		{"FullHistory", func() fl.Recorder {
			h, err := strategy.NewFullHistory(dim)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}, func(r fl.Recorder) any {
			h := r.(*strategy.FullHistory)
			var out []any
			for round := 0; round < rounds; round++ {
				m, err := h.Model(round)
				ids, err2 := h.Participants(round)
				out = append(out, m, ids, err, err2)
				for _, id := range ids {
					g, err := h.Gradient(round, id)
					w, err2 := h.Weight(round, id)
					out = append(out, g, w, err, err2)
				}
			}
			return out
		}},
		{"ConsistencyDetector", func() fl.Recorder { return detect.NewConsistencyDetector() },
			func(r fl.Recorder) any { return r.(*detect.ConsistencyDetector).Scores() }},
		{"CosineDetector", func() fl.Recorder { return detect.NewCosineDetector() },
			func(r fl.Recorder) any { return r.(*detect.CosineDetector).Scores() }},
	}
	round := func(round int) ([]float64, map[history.ClientID][]float64, map[history.ClientID]float64) {
		model := make([]float64, dim)
		grads := make(map[history.ClientID][]float64, clients)
		weights := make(map[history.ClientID]float64, clients)
		for i := range model {
			model[i] = math.Sin(float64(round*dim+i)) / 4
		}
		for c := 0; c < clients; c++ {
			id := history.ClientID(c)
			g := make([]float64, dim)
			for i := range g {
				g[i] = math.Cos(float64((round+1)*(c+2)*(i+3))) + float64(c%2)
			}
			if c == clients-1 {
				for i := range g {
					g[i] = -3 * g[i] // one outlier, so the detectors score a spread
				}
			}
			grads[id] = g
			weights[id] = float64(10 + c)
		}
		return model, grads, weights
	}
	for _, tc := range cases {
		kept, spoiled := tc.new(), tc.new()
		for r := 0; r < rounds; r++ {
			model, grads, weights := round(r)
			if err := kept.RecordRound(r, model, grads, weights); err != nil {
				t.Fatalf("%s round %d: %v", tc.name, r, err)
			}
			model, grads, weights = round(r)
			if err := spoiled.RecordRound(r, model, grads, weights); err != nil {
				t.Fatalf("%s round %d: %v", tc.name, r, err)
			}
			for i := range model {
				model[i] = math.NaN()
			}
			for _, g := range grads {
				for i := range g {
					g[i] = 1e9
				}
			}
			clear(grads)
			clear(weights)
		}
		want, got := tc.state(kept), tc.state(spoiled)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: state after the caller reused its buffers\n got %v\nwant %v", tc.name, fmt.Sprint(got), fmt.Sprint(want))
		}
		if s := fmt.Sprint(want); s == "[]" || s == "" {
			t.Errorf("%s: recorded nothing to compare", tc.name)
		}
	}
}
