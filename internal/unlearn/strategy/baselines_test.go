package strategy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"fuiov/internal/dataset"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/metrics"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
	"fuiov/internal/telemetry"
	"fuiov/internal/tensor"
)

// trained is a trained federation with a full-gradient history.
type trained struct {
	clients []*fl.Client
	test    *dataset.Dataset
	net     *nn.Network
	full    *FullHistory
	final   []float64
	lr      float64
	seed    uint64
	rounds  int
}

func trainWithFullHistory(t *testing.T, nClients, rounds int, seed uint64) *trained {
	t.Helper()
	d := dataset.SynthDigits(dataset.DefaultDigits(700, seed))
	r := rng.New(seed)
	train, test := d.Split(r, 0.85)
	shards, err := dataset.PartitionIID(train, r, nClients)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*fl.Client, nClients)
	for i := range clients {
		clients[i] = &fl.Client{ID: history.ClientID(i), Data: shards[i]}
	}
	net := nn.NewMLP(d.Dims.Size(), 20, d.Classes)
	net.Init(r.Split(77))
	full, err := NewFullHistory(net.NumParams())
	if err != nil {
		t.Fatal(err)
	}
	const lr = 0.05
	sim, err := fl.NewSimulation(net, clients, fl.Config{
		LearningRate: lr, Seed: seed, Recorders: []fl.Recorder{full},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), rounds); err != nil {
		t.Fatal(err)
	}
	return &trained{clients: clients, test: test, net: net, full: full,
		final: sim.Params(), lr: lr, seed: seed, rounds: rounds}
}

// request is the deployment's strategy Request forgetting the given
// clients; tests edit the copy they get.
func (fx *trained) request(forgotten ...history.ClientID) Request {
	return Request{
		Forgotten:    forgotten,
		Full:         fx.full,
		Template:     fx.net,
		Clients:      fx.clients,
		FinalParams:  fx.final,
		LearningRate: fx.lr,
		Rounds:       fx.rounds,
		Seed:         fx.seed,
	}
}

func TestFullHistoryValidation(t *testing.T) {
	if _, err := NewFullHistory(0); err == nil {
		t.Error("dim 0 should error")
	}
	h, err := NewFullHistory(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.RecordRound(1, []float64{1, 2, 3}, nil, nil); err == nil {
		t.Error("out-of-order round should error")
	}
	if err := h.RecordRound(0, []float64{1, 2}, nil, nil); err == nil {
		t.Error("wrong model dim should error")
	}
	if err := h.RecordRound(0, []float64{1, 2, 3},
		map[history.ClientID][]float64{1: {1}}, nil); err == nil {
		t.Error("wrong grad dim should error")
	}
}

func TestFullHistoryRoundTripAndCopies(t *testing.T) {
	h, err := NewFullHistory(2)
	if err != nil {
		t.Fatal(err)
	}
	model := []float64{1, 2}
	g := []float64{3, 4}
	if err := h.RecordRound(0, model,
		map[history.ClientID][]float64{7: g},
		map[history.ClientID]float64{7: 9}); err != nil {
		t.Fatal(err)
	}
	model[0] = 99 // must not leak into the store
	g[0] = 99
	gotM, err := h.Model(0)
	if err != nil {
		t.Fatal(err)
	}
	if gotM[0] != 1 {
		t.Error("store aliases caller model")
	}
	gotG, err := h.Gradient(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if gotG[0] != 3 {
		t.Error("store aliases caller gradient")
	}
	if w, err := h.Weight(0, 7); err != nil || w != 9 {
		t.Errorf("Weight = %v, %v", w, err)
	}
	if join, err := h.JoinRound(7); err != nil || join != 0 {
		t.Errorf("JoinRound = %v, %v", join, err)
	}
	if _, err := h.Gradient(0, 8); !errors.Is(err, history.ErrNoRecord) {
		t.Errorf("missing client err = %v", err)
	}
	if _, err := h.Model(3); !errors.Is(err, history.ErrNoRecord) {
		t.Errorf("missing round err = %v", err)
	}
	if _, err := h.JoinRound(42); !errors.Is(err, history.ErrNoRecord) {
		t.Errorf("missing join err = %v", err)
	}
	if h.StorageBytes() != 2*8 {
		t.Errorf("StorageBytes = %d, want 16", h.StorageBytes())
	}
	if p, err := h.Participants(0); err != nil || len(p) != 1 || p[0] != 7 {
		t.Errorf("Participants = %v, %v", p, err)
	}
}

func TestRetrainExcludesForgotten(t *testing.T) {
	fx := trainWithFullHistory(t, 5, 25, 1)
	ctx := context.Background()
	req := fx.request(1)
	req.Rounds = 80
	res, err := Unlearn(ctx, "retrain", req)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Params
	if !tensor.AllFinite(got) {
		t.Fatal("non-finite retrained model")
	}
	acc := metrics.AccuracyAt(fx.net.Clone(), got, fx.test)
	if acc < 0.3 {
		t.Errorf("retrained accuracy = %v, suspiciously low", acc)
	}
	if want := 80 * 4; res.ClientWork != want || res.RecoveredRounds != 80 {
		t.Errorf("client work %d over %d rounds, want %d over 80", res.ClientWork, res.RecoveredRounds, want)
	}
	// Forgetting everyone fails.
	all := make([]history.ClientID, len(fx.clients))
	for i, c := range fx.clients {
		all[i] = c.ID
	}
	req = fx.request(all...)
	req.Rounds = 5
	if _, err := Unlearn(ctx, "retrain", req); err == nil {
		t.Error("retraining with zero clients should error")
	}
	// No horizon: neither Rounds nor a history tier to read it from.
	req = fx.request(1)
	req.Rounds, req.Full = 0, nil
	if _, err := Unlearn(ctx, "retrain", req); !errors.Is(err, ErrMissingInput) {
		t.Errorf("zero rounds err = %v, want ErrMissingInput", err)
	}
}

func TestFedRecoverRecovers(t *testing.T) {
	fx := trainWithFullHistory(t, 6, 30, 2)
	req := fx.request(1)
	req.Telemetry = telemetry.New()
	res, err := FedRecover{warmup: 3, correctEvery: 10}.Unlearn(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllFinite(res.Params) {
		t.Fatal("non-finite recovery")
	}
	// Rounds 0-2 (warm-up), 10 and 20 are exact; five clients remain.
	if want := 5 * 5; res.ClientWork != want {
		t.Errorf("exact gradient calls = %d, want %d", res.ClientWork, want)
	}
	if got := req.Telemetry.Counter(telemetry.FedRecoverEstimated).Value(); got != 25 {
		t.Errorf("estimated rounds = %d, want 25", got)
	}
	eval := fx.net.Clone()
	accFinal := metrics.AccuracyAt(eval, fx.final, fx.test)
	accRec := metrics.AccuracyAt(eval, res.Params, fx.test)
	t.Logf("final=%.3f fedrecover=%.3f exactCalls=%d", accFinal, accRec, res.ClientWork)
	if accRec < accFinal-0.3 {
		t.Errorf("FedRecover accuracy %.3f too far below final %.3f", accRec, accFinal)
	}
}

func TestFedRecoverValidation(t *testing.T) {
	fx := trainWithFullHistory(t, 3, 5, 3)
	ctx := context.Background()
	req := fx.request(1)
	req.Full = nil
	if _, err := Unlearn(ctx, "fedrecover", req); !errors.Is(err, ErrMissingInput) {
		t.Errorf("nil history err = %v, want ErrMissingInput", err)
	}
	req = fx.request(1)
	req.LearningRate = 0
	if _, err := Unlearn(ctx, "fedrecover", req); !errors.Is(err, ErrMissingInput) {
		t.Errorf("missing learning rate err = %v, want ErrMissingInput", err)
	}
	req = fx.request(1)
	req.Full, _ = NewFullHistory(fx.net.NumParams())
	if _, err := Unlearn(ctx, "fedrecover", req); err == nil {
		t.Error("empty history should error")
	}
	// Offline client: exact correction must fail loudly.
	req = fx.request(1)
	req.Clients = fx.clients[:1]
	if _, err := Unlearn(ctx, "fedrecover", req); err == nil {
		t.Error("missing online client should error")
	}
	if _, err := (FedRecover{policy: &fl.FaultPolicy{Quorum: 2}}).Unlearn(ctx, fx.request(1)); err == nil {
		t.Error("invalid fault policy should error")
	}
}

// fedRecovery runs the FedRecovery strategy on the fixture with the
// given noise and returns the unlearned parameters.
func fedRecovery(t *testing.T, fx *trained, noise float64, forgotten ...history.ClientID) []float64 {
	t.Helper()
	req := fx.request(forgotten...)
	req.Noise = noise
	res, err := FedRecovery{}.Unlearn(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res.Params
}

func TestFedRecoveryRemovesInfluence(t *testing.T) {
	fx := trainWithFullHistory(t, 5, 20, 4)
	// Noise-free: result must differ from the final model (influence
	// removed) and stay finite.
	got := fedRecovery(t, fx, 0, 2)
	if !tensor.AllFinite(got) {
		t.Fatal("non-finite result")
	}
	dist, err := modelDistance(got, fx.final)
	if err != nil {
		t.Fatal(err)
	}
	if dist == 0 {
		t.Error("FedRecovery changed nothing")
	}
	// First-order removal should move towards the retrained model
	// relative to doing nothing... at minimum it should not explode.
	accFinal := metrics.AccuracyAt(fx.net.Clone(), fx.final, fx.test)
	accU := metrics.AccuracyAt(fx.net.Clone(), got, fx.test)
	t.Logf("final=%.3f fedrecovery=%.3f dist=%.3f", accFinal, accU, dist)
	if accU < accFinal-0.4 {
		t.Errorf("FedRecovery accuracy %.3f collapsed from %.3f", accU, accFinal)
	}
}

func TestFedRecoveryNoiseApplied(t *testing.T) {
	fx := trainWithFullHistory(t, 4, 10, 5)
	a := fedRecovery(t, fx, 0, 1)
	b := fedRecovery(t, fx, 0.01, 1)
	dist, err := modelDistance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if dist == 0 {
		t.Error("noise had no effect")
	}
	// Deterministic for a fixed seed.
	if b2 := fedRecovery(t, fx, 0.01, 1); !equal(b, b2, 0) {
		t.Error("same-seed noise differs")
	}
}

func TestFedRecoveryValidation(t *testing.T) {
	fx := trainWithFullHistory(t, 3, 5, 6)
	ctx := context.Background()
	req := fx.request(1)
	req.Full = nil
	if _, err := Unlearn(ctx, "fedrecovery", req); !errors.Is(err, ErrMissingInput) {
		t.Errorf("nil history err = %v, want ErrMissingInput", err)
	}
	req = fx.request(1)
	req.LearningRate = 0
	if _, err := Unlearn(ctx, "fedrecovery", req); !errors.Is(err, ErrMissingInput) {
		t.Errorf("missing learning rate err = %v, want ErrMissingInput", err)
	}
	req = fx.request(1)
	req.FinalParams = fx.final[:3]
	if _, err := Unlearn(ctx, "fedrecovery", req); err == nil {
		t.Error("wrong final dim should error")
	}
	req = fx.request(1)
	req.Noise = -1
	if _, err := Unlearn(ctx, "fedrecovery", req); err == nil {
		t.Error("negative noise should error")
	}
}

func TestFedRecoveryNoForgottenIsIdentityPlusNoise(t *testing.T) {
	fx := trainWithFullHistory(t, 3, 8, 7)
	if got := fedRecovery(t, fx, 0); !equal(got, fx.final, 0) {
		t.Error("empty forget set should return the final model unchanged")
	}
}

// equal reports whether a and b have the same length and every pair of
// elements differs by at most tol.
func equal(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// modelDistance returns the L2 distance between two flat parameter
// vectors.
func modelDistance(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("dimension mismatch %d vs %d", len(a), len(b))
	}
	return tensor.Norm2(tensor.Sub(a, b)), nil
}
