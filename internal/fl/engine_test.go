package fl

import (
	"math"
	"testing"

	"fuiov/internal/history"
)

// TestFailedCommitRecordsNothing pins the commit order (resolve, then
// record): a round validation cannot refuse — every weight zero — must
// fail without entering the history, in either mode, so that the store
// never runs ahead of the round clock and an honest retry of the same
// round commits. Weights no aggregate can use are refused on arrival.
func TestFailedCommitRecordsNothing(t *testing.T) {
	for _, streaming := range []bool{false, true} {
		clients, _, net := buildFederation(t, 3, 300, 5)
		store, err := history.NewStore(net.NumParams(), 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSimulation(net, clients, Config{
			LearningRate: 0.1, Seed: 5, Store: store, Streaming: streaming,
		})
		if err != nil {
			t.Fatal(err)
		}
		grads := make(map[history.ClientID][]float64, len(clients))
		zero := make(map[history.ClientID]float64, len(clients))
		honest := make(map[history.ClientID]float64, len(clients))
		for _, c := range clients {
			g, err := c.ComputeGradient(net, sim.Params(), 5, 0)
			if err != nil {
				t.Fatal(err)
			}
			grads[c.ID], zero[c.ID], honest[c.ID] = g, 0, c.Weight()
		}

		if err := sim.SubmitRound(grads, zero, len(grads)); err == nil {
			t.Fatalf("streaming=%v: zero-total-weight round committed", streaming)
		}
		if store.Rounds() != 0 || sim.Round() != 0 {
			t.Fatalf("streaming=%v: failed commit left store at %d, clock at %d, want 0 and 0",
				streaming, store.Rounds(), sim.Round())
		}
		for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
			lying := map[history.ClientID]float64{0: w, 1: honest[1], 2: honest[2]}
			if err := sim.SubmitRound(grads, lying, len(grads)); err == nil {
				t.Fatalf("streaming=%v: weight %v accepted", streaming, w)
			}
		}
		if err := sim.SubmitRound(grads, honest, len(grads)); err != nil {
			t.Fatalf("streaming=%v: honest retry: %v", streaming, err)
		}
		if store.Rounds() != 1 || sim.Round() != 1 {
			t.Fatalf("streaming=%v: store at %d, clock at %d after the honest retry, want 1 and 1",
				streaming, store.Rounds(), sim.Round())
		}
		for _, v := range sim.Params() {
			if math.IsNaN(v) {
				t.Fatalf("streaming=%v: model turned NaN", streaming)
			}
		}
	}
}
