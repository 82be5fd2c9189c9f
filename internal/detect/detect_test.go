package detect

import (
	"context"
	"testing"

	"fuiov/internal/dataset"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
)

// runFederation trains a small federation with the detectors
// attached.
func runFederation(t *testing.T, recorders []fl.Recorder, rounds int, seed uint64) {
	t.Helper()
	d := dataset.SynthDigits(dataset.DefaultDigits(800, seed))
	r := rng.New(seed)
	train, _ := d.Split(r, 0.85)
	shards, err := dataset.PartitionIID(train, r, 8)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*fl.Client, 8)
	for i := range clients {
		clients[i] = &fl.Client{ID: history.ClientID(i), Data: shards[i]}
	}
	net := nn.NewMLP(d.Dims.Size(), 20, d.Classes)
	net.Init(r.Split(7))
	sim, err := fl.NewSimulation(net, clients, fl.Config{
		LearningRate: 0.05, Seed: seed, Recorders: recorders,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), rounds); err != nil {
		t.Fatal(err)
	}
}

// perturbation is a model-poisoning upload as a detector sees it: the
// client's gradient negated and scaled by flip, or, when noise is set,
// the gradient plus N(0, noise²) per element.
type perturbation struct{ flip, noise float64 }

// poisoned hands next each round with the named clients' gradients
// replaced by perturbed copies. The federation itself trains on the
// clean gradients; only the recorder sees the attack.
type poisoned struct {
	next    fl.Recorder
	attacks map[history.ClientID]perturbation
	seed    uint64
}

func (p *poisoned) RecordRound(t int, model []float64, grads map[history.ClientID][]float64, weights map[history.ClientID]float64) error {
	seen := make(map[history.ClientID][]float64, len(grads))
	for id, g := range grads {
		a, ok := p.attacks[id]
		if !ok {
			seen[id] = g
			continue
		}
		r := rng.New(rng.Mix(p.seed, uint64(id), uint64(t)))
		out := make([]float64, len(g))
		for i, v := range g {
			if a.noise > 0 {
				out[i] = v + r.NormalScaled(0, a.noise)
			} else {
				out[i] = -a.flip * v
			}
		}
		seen[id] = out
	}
	return p.next.RecordRound(t, model, seen, weights)
}

func containsAll(got []history.ClientID, want ...history.ClientID) bool {
	set := make(map[history.ClientID]bool, len(got))
	for _, id := range got {
		set[id] = true
	}
	for _, id := range want {
		if !set[id] {
			return false
		}
	}
	return true
}

func TestCosineDetectorFlagsSignFlippers(t *testing.T) {
	det := NewCosineDetector()
	runFederation(t, []fl.Recorder{&poisoned{next: det, seed: 1, attacks: map[history.ClientID]perturbation{
		2: {flip: 3},
		5: {flip: 3},
	}}}, 30, 1)
	suspects := det.Suspects()
	t.Logf("scores: %+v", det.Scores())
	if !containsAll(suspects, 2, 5) {
		t.Errorf("suspects = %v, want clients 2 and 5", suspects)
	}
	if len(suspects) > 3 {
		t.Errorf("too many false positives: %v", suspects)
	}
}

func TestCosineDetectorCleanRunNoFlags(t *testing.T) {
	det := NewCosineDetector()
	runFederation(t, []fl.Recorder{det}, 30, 2)
	if suspects := det.Suspects(); len(suspects) != 0 {
		t.Errorf("clean run flagged %v", suspects)
	}
}

func TestCosineDetectorTooFewClients(t *testing.T) {
	det := NewCosineDetector()
	// Single client rounds are ignored; Suspects on tiny populations
	// returns nil.
	err := det.RecordRound(0, nil, map[history.ClientID][]float64{1: {1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if det.Suspects() != nil {
		t.Error("suspects on degenerate input")
	}
}

func TestConsistencyDetectorFlagsNoiseAttacker(t *testing.T) {
	det := NewConsistencyDetector()
	runFederation(t, []fl.Recorder{&poisoned{next: det, seed: 3, attacks: map[history.ClientID]perturbation{
		1: {noise: 0.5},
		6: {flip: 5},
	}}}, 40, 3)
	suspects := det.Suspects()
	t.Logf("scores: %+v", det.Scores())
	if !containsAll(suspects, 1) {
		t.Errorf("suspects = %v, want to include noisy client 1", suspects)
	}
	if len(suspects) > 4 {
		t.Errorf("too many false positives: %v", suspects)
	}
}

func TestConsistencyDetectorCleanRun(t *testing.T) {
	det := NewConsistencyDetector()
	runFederation(t, []fl.Recorder{det}, 40, 4)
	if suspects := det.Suspects(); len(suspects) != 0 {
		t.Errorf("clean run flagged %v (scores %+v)", suspects, det.Scores())
	}
}

func TestDetectorsComposeWithHistoryStore(t *testing.T) {
	// Detectors and the unlearning history store observe the same run;
	// detection output feeds straight into the store's unlearning API.
	det := NewCosineDetector()
	store, err := history.NewStore(nn.NewMLP(144, 20, 10).NumParams(), 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	runFederation(t, []fl.Recorder{store, &poisoned{next: det, seed: 5, attacks: map[history.ClientID]perturbation{
		4: {flip: 4},
	}}}, 25, 5)
	suspects := det.Suspects()
	if !containsAll(suspects, 4) {
		t.Fatalf("suspects = %v, want client 4", suspects)
	}
	// The store can backtrack each suspect.
	for _, id := range suspects {
		if _, err := store.JoinRound(id); err != nil {
			t.Errorf("store missing join round for suspect %d: %v", id, err)
		}
	}
}

func TestTwoMeans(t *testing.T) {
	threshold, sep := twoMeans([]float64{0.9, 1.0, 1.1, 5.0, 5.2})
	if threshold < 1.1 || threshold > 5.0 {
		t.Errorf("threshold = %v, want between clusters", threshold)
	}
	if sep < 1 {
		t.Errorf("separation = %v, want clearly separated", sep)
	}
	// Identical values: zero separation.
	_, sep = twoMeans([]float64{2, 2, 2})
	if sep != 0 {
		t.Errorf("identical values separation = %v, want 0", sep)
	}
	if _, sep := twoMeans([]float64{1}); sep != 0 {
		t.Errorf("single value separation = %v", sep)
	}
}

func TestScoresSorted(t *testing.T) {
	det := NewCosineDetector()
	grads := map[history.ClientID][]float64{
		5: {1, 1}, 1: {1, 1}, 3: {1, 1},
	}
	if err := det.RecordRound(0, nil, grads, nil); err != nil {
		t.Fatal(err)
	}
	scores := det.Scores()
	if len(scores) != 3 || scores[0].Client != 1 || scores[1].Client != 3 || scores[2].Client != 5 {
		t.Errorf("scores not sorted: %+v", scores)
	}
}
