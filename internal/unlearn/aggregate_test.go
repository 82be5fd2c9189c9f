package unlearn

import (
	"fmt"
	"math"
	"testing"

	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/rng"
)

// TestAggregateRangesMatchesFedAvg: the pass's element-range split of
// FedAvg is FedAvg.AggregateInto on the full vector, bit for bit, for
// dimensions around the split points and one client up to sixteen with
// unequal (and some defaulted) weights, at every parallelism; and it
// fails with AggregateInto's error on a negative weight, a zero total
// weight and a length mismatch.
func TestAggregateRangesMatchesFedAvg(t *testing.T) {
	r := rng.New(27)
	for _, dim := range []int{1, 3, 4, 5, 1211, 1212, 34186} {
		store, err := history.NewStore(dim, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2, 3} {
			u, err := New(store, Config{LearningRate: 1, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			p := u.newPass(make([]float64, dim), 0, nil)
			want := make([]float64, dim)
			for clients := 1; clients <= 16; clients++ {
				name := fmt.Sprintf("dim %d parallelism %d clients %d", dim, par, clients)
				p.remaining = p.remaining[:0]
				clear(p.grads)
				clear(p.weights)
				for c := 0; c < clients; c++ {
					id := history.ClientID(3*c + 1)
					p.remaining = append(p.remaining, id)
					g := make([]float64, dim)
					for i := range g {
						g[i] = r.NormalScaled(0, 1)
					}
					p.grads[id] = g
					if c%4 != 3 { // every fourth client takes the default weight
						p.weights[id] = float64(1 + r.IntN(200))
					}
				}
				if err := (fl.FedAvg{}).AggregateInto(want, p.remaining, p.grads, p.weights); err != nil {
					t.Fatal(err)
				}
				clear(p.aggOut)
				if err := p.aggregateRanges(par); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i := range want {
					if math.Float64bits(p.aggOut[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: element %d = %v, AggregateInto %v", name, i, p.aggOut[i], want[i])
					}
				}
			}

			last := p.remaining[len(p.remaining)-1]
			bad := []struct {
				name  string
				spoil func()
			}{
				{"negative weight", func() { p.weights[p.remaining[2]] = -1 }},
				{"zero total weight", func() {
					for _, id := range p.remaining {
						p.weights[id] = 0
					}
				}},
				{"length mismatch", func() { p.grads[last] = p.grads[last][:dim-1] }},
			}
			for _, b := range bad {
				keepG, keepW := p.grads[last], make(map[history.ClientID]float64, len(p.weights))
				for id, w := range p.weights {
					keepW[id] = w
				}
				b.spoil()
				wantErr := (fl.FedAvg{}).AggregateInto(want, p.remaining, p.grads, p.weights)
				gotErr := p.aggregateRanges(par)
				if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
					t.Errorf("dim %d parallelism %d %s: err %v, AggregateInto %v", dim, par, b.name, gotErr, wantErr)
				}
				p.grads[last], p.weights = keepG, keepW
			}
		}
	}
}

// TestRangeWorkersOffForSmallModels: the split stays off below
// fl.MinRangeWork of aggregation — at the TrafficCNN's 1 212 parameters
// for any fleet a test or benchmark runs — and never exceeds the
// pass's parallelism.
func TestRangeWorkersOffForSmallModels(t *testing.T) {
	for clients := 1; clients <= 16; clients++ {
		if w := fl.RangeWorkers(1212, clients, 8); w != 1 {
			t.Errorf("dim 1212, %d clients: %d range workers, want the split off", clients, w)
		}
	}
	if w := fl.RangeWorkers(34186, 15, 2); w != 2 {
		t.Errorf("dim 34186, 15 clients, parallelism 2: %d range workers, want 2", w)
	}
	if w := fl.RangeWorkers(34186, 15, 64); w != 34186*15/fl.MinRangeWork {
		t.Errorf("dim 34186, 15 clients, parallelism 64: %d range workers, want %d", w, 34186*15/fl.MinRangeWork)
	}
}
