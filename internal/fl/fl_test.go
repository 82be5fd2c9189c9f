package fl

import (
	"context"
	"math"
	"testing"

	"fuiov/internal/dataset"
	"fuiov/internal/history"
	"fuiov/internal/metrics"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
)

// buildFederation creates n clients over a synthetic digits dataset
// plus a held-out test set and an initialised template model.
func buildFederation(t *testing.T, n, samples int, seed uint64) ([]*Client, *dataset.Dataset, *nn.Network) {
	t.Helper()
	d := dataset.SynthDigits(dataset.DefaultDigits(samples, seed))
	r := rng.New(seed)
	train, test := d.Split(r, 0.85)
	shards, err := dataset.PartitionIID(train, r, n)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, n)
	for i := range clients {
		clients[i] = &Client{ID: history.ClientID(i), Data: shards[i], BatchSize: 32}
	}
	net := nn.NewMLP(d.Dims.Size(), 24, d.Classes)
	net.Init(r.Split(1000))
	return clients, test, net
}

func TestFedAvgKnown(t *testing.T) {
	grads := map[history.ClientID][]float64{
		1: {1, 0},
		2: {0, 1},
	}
	weights := map[history.ClientID]float64{1: 3, 2: 1}
	got, err := FedAvg{}.Aggregate(grads, weights)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.75, 0.25}
	if !equal(got, want, 1e-12) {
		t.Errorf("Aggregate = %v, want %v", got, want)
	}
}

func TestFedAvgDefaultsWeightsToOne(t *testing.T) {
	grads := map[history.ClientID][]float64{
		1: {2, 4},
		2: {0, 0},
	}
	got, err := FedAvg{}.Aggregate(grads, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(got, []float64{1, 2}, 1e-12) {
		t.Errorf("Aggregate = %v, want [1 2]", got)
	}
}

func TestFedAvgErrors(t *testing.T) {
	if _, err := (FedAvg{}).Aggregate(nil, nil); err == nil {
		t.Error("empty gradients should error")
	}
	if _, err := (FedAvg{}).Aggregate(map[history.ClientID][]float64{
		1: {1, 2}, 2: {1},
	}, nil); err == nil {
		t.Error("dimension mismatch should error")
	}
	if _, err := (FedAvg{}).Aggregate(map[history.ClientID][]float64{1: {1}},
		map[history.ClientID]float64{1: -2}); err == nil {
		t.Error("negative weight should error")
	}
	if _, err := (FedAvg{}).Aggregate(map[history.ClientID][]float64{1: {1}},
		map[history.ClientID]float64{1: 0}); err == nil {
		t.Error("zero total weight should error")
	}
}

func TestFedAvgDeterministicOrder(t *testing.T) {
	// Many clients with values whose float sum depends on order; the
	// result must be identical across repeated calls.
	grads := map[history.ClientID][]float64{}
	r := rng.New(9)
	for i := 0; i < 50; i++ {
		grads[history.ClientID(i)] = []float64{r.NormalScaled(0, 1e8), r.Normal()}
	}
	first, err := FedAvg{}.Aggregate(grads, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		got, err := FedAvg{}.Aggregate(grads, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != first[0] || got[1] != first[1] {
			t.Fatal("aggregation result depends on map iteration order")
		}
	}
}

func TestSimulationValidation(t *testing.T) {
	clients, _, net := buildFederation(t, 3, 200, 1)
	if _, err := NewSimulation(nil, clients, Config{LearningRate: 0.1}); err == nil {
		t.Error("nil template should error")
	}
	if _, err := NewSimulation(net, nil, Config{LearningRate: 0.1}); err == nil {
		t.Error("no clients should error")
	}
	if _, err := NewSimulation(net, clients, Config{}); err == nil {
		t.Error("zero learning rate should error")
	}
	dup := []*Client{clients[0], {ID: clients[0].ID, Data: clients[0].Data}}
	if _, err := NewSimulation(net, dup, Config{LearningRate: 0.1}); err == nil {
		t.Error("duplicate IDs should error")
	}
}

func TestTrainingImprovesAccuracy(t *testing.T) {
	clients, test, net := buildFederation(t, 5, 600, 2)
	sim, err := NewSimulation(net, clients, Config{LearningRate: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := metrics.AccuracyAt(net, sim.Params(), test)
	if err := sim.RunContext(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	after := metrics.AccuracyAt(net, sim.Params(), test)
	if after < before+0.2 {
		t.Fatalf("federated training did not learn: %v -> %v", before, after)
	}
	if sim.Round() != 40 {
		t.Errorf("Round = %d, want 40", sim.Round())
	}
}

func TestDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) []float64 {
		clients, _, net := buildFederation(t, 6, 300, 3)
		sim, err := NewSimulation(net, clients, Config{
			LearningRate: 0.3, Seed: 3, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunContext(context.Background(), 10); err != nil {
			t.Fatal(err)
		}
		return sim.Params()
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("param %d differs across parallelism: %v vs %v", i, serial[i], parallel[i])
		}
	}
}

func TestHistoryRecording(t *testing.T) {
	clients, _, net := buildFederation(t, 4, 300, 4)
	store, err := history.NewStore(net.NumParams(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulation(net, clients, Config{
		LearningRate: 0.3, Seed: 4, Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	w0 := sim.Params()
	if err := sim.RunContext(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if store.Rounds() != 5 {
		t.Fatalf("store has %d rounds, want 5", store.Rounds())
	}
	// Round 0 snapshot is the pre-update model.
	m0, err := store.Model(0)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(m0, w0, 0) {
		t.Error("round 0 snapshot should equal initial parameters")
	}
	p, err := store.Participants(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 4 {
		t.Errorf("participants = %v, want 4 clients", p)
	}
	// Weights equal shard sizes.
	for _, id := range p {
		w, err := store.Weight(0, id)
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		for _, c := range clients {
			if c.ID == id {
				want = float64(c.Data.Len())
			}
		}
		if w != want {
			t.Errorf("client %d weight = %v, want %v", id, w, want)
		}
	}
}

func TestIntervalSchedule(t *testing.T) {
	iv := Interval{Join: 2, Leave: 5}
	for _, tc := range []struct {
		t    int
		want bool
	}{{0, false}, {1, false}, {2, true}, {4, true}, {5, false}, {9, false}} {
		if got := iv.Contains(tc.t); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
	forever := Interval{Join: 3, Leave: -1}
	if !forever.Contains(1000) {
		t.Error("Leave<0 should mean never leaves")
	}
	s := IntervalSchedule{7: {Join: 0, Leave: -1}}
	if s.Participates(8, 0) {
		t.Error("unknown client should not participate")
	}
	if !s.Participates(7, 100) {
		t.Error("registered client should participate")
	}
}

func TestDynamicMembershipRecordsJoins(t *testing.T) {
	clients, _, net := buildFederation(t, 3, 300, 5)
	store, err := history.NewStore(net.NumParams(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	sched := IntervalSchedule{
		0: {Join: 0, Leave: -1},
		1: {Join: 2, Leave: 4}, // joins mid-training, leaves early
		2: {Join: 0, Leave: -1},
	}
	sim, err := NewSimulation(net, clients, Config{
		LearningRate: 0.3, Seed: 5, Store: store, Schedule: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), 6); err != nil {
		t.Fatal(err)
	}
	join, err := store.JoinRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if join != 2 {
		t.Errorf("client 1 join round = %d, want 2", join)
	}
	// No record of client 1 at round 1 or round 4.
	if _, err := store.Direction(1, 1); err == nil {
		t.Error("client 1 should have no direction at round 1")
	}
	if _, err := store.Direction(4, 1); err == nil {
		t.Error("client 1 should have no direction at round 4")
	}
	if _, err := store.Direction(3, 1); err != nil {
		t.Errorf("client 1 should have a direction at round 3: %v", err)
	}
}

func TestEmptyRoundAdvancesClock(t *testing.T) {
	clients, _, net := buildFederation(t, 2, 200, 6)
	sim, err := NewSimulation(net, clients, Config{
		LearningRate: 0.3, Seed: 6,
		Schedule: FuncSchedule(func(history.ClientID, int) bool { return false }),
	})
	if err != nil {
		t.Fatal(err)
	}
	before := sim.Params()
	if err := sim.RunContext(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if sim.Round() != 3 {
		t.Errorf("Round = %d, want 3", sim.Round())
	}
	if !equal(sim.Params(), before, 0) {
		t.Error("parameters changed in empty rounds")
	}
}

func TestSetParamsRoundTrip(t *testing.T) {
	clients, _, net := buildFederation(t, 2, 200, 8)
	sim, err := NewSimulation(net, clients, Config{LearningRate: 0.3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := sim.Params()
	for i := range p {
		p[i] = float64(i % 5)
	}
	if err := sim.SetParams(p); err != nil {
		t.Fatal(err)
	}
	if !equal(sim.Params(), p, 0) {
		t.Error("SetParams did not take effect")
	}
	if err := sim.SetParams(make([]float64, 3)); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestClientGradientFiniteAndDeterministic(t *testing.T) {
	clients, _, net := buildFederation(t, 2, 200, 10)
	c := clients[0]
	params := net.ParamVector()
	g1, err := c.ComputeGradient(net, params, 42, 3)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.ComputeGradient(net, params, 42, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g1 {
		if math.IsNaN(g1[i]) || math.IsInf(g1[i], 0) {
			t.Fatal("non-finite gradient")
		}
		if g1[i] != g2[i] {
			t.Fatal("gradient not deterministic for same (seed, round)")
		}
	}
	g3, err := c.ComputeGradient(net, params, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range g1 {
		if g1[i] != g3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different rounds should draw different mini-batches")
	}
}

func TestClientWithoutDataErrors(t *testing.T) {
	net := nn.NewMLP(4, 2)
	c := &Client{ID: 1}
	if _, err := c.ComputeGradient(net, net.ParamVector(), 1, 0); err == nil {
		t.Error("client without data should error")
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
