package fl

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"fuiov/internal/history"
)

// TestStartRoundResumeBitIdentical trains T rounds straight through,
// then repeats the run with a mid-way Store.Save/Load and a fresh
// simulation resumed via StartRound, and demands bit-identical final
// parameters and history snapshots.
func TestStartRoundResumeBitIdentical(t *testing.T) {
	const rounds, resumeAt = 6, 3
	run := func(resume bool) ([]float64, []byte) {
		clients, _, net := buildFederation(t, 3, 120, 11)
		store, err := history.NewStore(net.NumParams(), 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSimulation(net, clients, Config{LearningRate: 0.1, Seed: 11, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		for sim.Round() < rounds {
			if resume && sim.Round() == resumeAt {
				var buf bytes.Buffer
				if err := store.Save(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := history.Load(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				resumed := net.Clone()
				resumed.SetParamVector(sim.Params())
				freshClients, _, _ := buildFederation(t, 3, 120, 11)
				store = loaded
				sim, err = NewSimulation(resumed, freshClients, Config{
					LearningRate: 0.1, Seed: 11, Store: store, StartRound: loaded.Rounds(),
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := sim.RunRoundContext(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := store.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return sim.Params(), buf.Bytes()
	}
	pStraight, sStraight := run(false)
	pResumed, sResumed := run(true)
	for i := range pStraight {
		if math.Float64bits(pStraight[i]) != math.Float64bits(pResumed[i]) {
			t.Fatalf("resumed run diverged at param %d: %v vs %v", i, pStraight[i], pResumed[i])
		}
	}
	if !bytes.Equal(sStraight, sResumed) {
		t.Fatal("resumed run produced a different history snapshot")
	}
}

// TestStartRoundValidation pins the constructor's resume checks.
func TestStartRoundValidation(t *testing.T) {
	clients, _, net := buildFederation(t, 2, 60, 3)
	if _, err := NewSimulation(net, clients, Config{LearningRate: 0.1, StartRound: -1}); err == nil ||
		!strings.Contains(err.Error(), "negative start round") {
		t.Fatalf("negative StartRound: err = %v", err)
	}
	store, err := history.NewStore(net.NumParams(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSimulation(net, clients, Config{LearningRate: 0.1, Store: store, StartRound: 2}); err == nil ||
		!strings.Contains(err.Error(), "does not continue") {
		t.Fatalf("StartRound ahead of empty store: err = %v", err)
	}
	// Without a store the start round is the caller's business.
	sim, err := NewSimulation(net, clients, Config{LearningRate: 0.1, StartRound: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Round() != 4 {
		t.Fatalf("Round() = %d after StartRound 4", sim.Round())
	}
}
