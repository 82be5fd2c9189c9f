package fl

import (
	"context"
	"math"
	"testing"

	"fuiov/internal/attack"
	"fuiov/internal/history"
	"fuiov/internal/metrics"
	"fuiov/internal/rng"
	"fuiov/internal/tensor"
)

func gradsFixture() map[history.ClientID][]float64 {
	return map[history.ClientID][]float64{
		1: {1, 10},
		2: {2, 20},
		3: {3, 30},
		4: {4, 40},
		5: {100, -100}, // outlier / Byzantine
	}
}

func TestMedian(t *testing.T) {
	got, err := Median{}.Aggregate(gradsFixture(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(got, []float64{3, 20}, 1e-12) {
		t.Errorf("median = %v, want [3 20]", got)
	}
	// Even count.
	even := map[history.ClientID][]float64{1: {1}, 2: {2}, 3: {3}, 4: {10}}
	got, err = Median{}.Aggregate(even, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2.5 {
		t.Errorf("even median = %v, want 2.5", got[0])
	}
	if _, err := (Median{}).Aggregate(nil, nil); err == nil {
		t.Error("empty input should error")
	}
}

func TestMedianIgnoresOutlier(t *testing.T) {
	clean := map[history.ClientID][]float64{1: {1}, 2: {1.1}, 3: {0.9}}
	dirty := map[history.ClientID][]float64{1: {1}, 2: {1.1}, 3: {0.9}, 4: {1e9}, 5: {0.95}}
	a, _ := Median{}.Aggregate(clean, nil)
	b, _ := Median{}.Aggregate(dirty, nil)
	if math.Abs(a[0]-b[0]) > 0.2 {
		t.Errorf("outlier moved the median from %v to %v", a[0], b[0])
	}
}

func TestTrimmedMean(t *testing.T) {
	got, err := TrimmedMean{Trim: 1}.Aggregate(gradsFixture(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Coordinate 0: drop 1 and 100 -> mean(2,3,4) = 3.
	// Coordinate 1: drop -100 and 40 -> mean(10,20,30) = 20.
	if !tensor.Equal(got, []float64{3, 20}, 1e-12) {
		t.Errorf("trimmed mean = %v, want [3 20]", got)
	}
	if _, err := (TrimmedMean{Trim: 3}).Aggregate(gradsFixture(), nil); err == nil {
		t.Error("over-trim should error")
	}
	if _, err := (TrimmedMean{Trim: -1}).Aggregate(gradsFixture(), nil); err == nil {
		t.Error("negative trim should error")
	}
}

func TestKrumPicksInlier(t *testing.T) {
	// Four tightly clustered gradients and one far outlier: Krum must
	// return one of the cluster members.
	grads := map[history.ClientID][]float64{
		1: {1.0, 1.0},
		2: {1.1, 0.9},
		3: {0.9, 1.1},
		4: {1.05, 1.0},
		5: {50, -50},
	}
	got, err := Krum{F: 1}.Aggregate(grads, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] > 2 || got[1] < 0 {
		t.Errorf("krum selected the outlier: %v", got)
	}
	// Identity: output must be exactly one of the inputs.
	match := false
	for _, g := range grads {
		if tensor.Equal(got, g, 0) {
			match = true
		}
	}
	if !match {
		t.Error("krum output is not one of the inputs")
	}
}

func TestKrumValidation(t *testing.T) {
	grads := gradsFixture()
	if _, err := (Krum{F: 2}).Aggregate(grads, nil); err == nil {
		t.Error("n <= 2f+2 should error")
	}
	if _, err := (Krum{F: -1}).Aggregate(grads, nil); err == nil {
		t.Error("negative f should error")
	}
}

func TestSignAggregator(t *testing.T) {
	grads := map[history.ClientID][]float64{
		1: {1, -2, 0},
		2: {3, -4, 0},
		3: {-5, 6, 0},
	}
	got, err := SignAggregator{Lambda: 0.3}.Aggregate(grads, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Signs per coordinate: (+,+,-) = +1, (-,-,+) = -1, zeros = 0;
	// scaled by λ/n = 0.1.
	want := []float64{0.1, -0.1, 0}
	if !tensor.Equal(got, want, 1e-12) {
		t.Errorf("sign agg = %v, want %v", got, want)
	}
	if _, err := (SignAggregator{}).Aggregate(grads, nil); err == nil {
		t.Error("lambda 0 should error")
	}
}

func TestAggregatorNames(t *testing.T) {
	for name, agg := range map[string]Aggregator{
		"fedavg":         FedAvg{},
		"median":         Median{},
		"trimmedmean(1)": TrimmedMean{Trim: 1},
		"krum(f=1)":      Krum{F: 1},
		"rsa-sign(λ=1)":  SignAggregator{Lambda: 1},
	} {
		if got := agg.Name(); got != name {
			t.Errorf("Name = %q, want %q", got, name)
		}
	}
}

// TestRobustAggregationUnderAttack trains the same federation under a
// strong sign-flip attacker with FedAvg and with coordinate-median
// aggregation; the robust rule must end up with a better model.
func TestRobustAggregationUnderAttack(t *testing.T) {
	train := func(agg Aggregator) float64 {
		clients, test, net := buildFederation(t, 6, 700, 31)
		clients[0].GradAttack = &attack.SignFlip{Magnitude: 8}
		clients[1].GradAttack = &attack.SignFlip{Magnitude: 8}
		sim, err := NewSimulation(net, clients, Config{
			LearningRate: 0.1, Seed: 31, Aggregator: agg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunContext(context.Background(), 60); err != nil {
			t.Fatal(err)
		}
		return metrics.Accuracy(sim.GlobalModel(), test)
	}
	avg := train(FedAvg{})
	med := train(Median{})
	t.Logf("under 2/6 sign-flippers: fedavg=%.3f median=%.3f", avg, med)
	if med <= avg {
		t.Errorf("median (%.3f) should beat fedavg (%.3f) under attack", med, avg)
	}
}

// TestSignAggregatorTrains verifies the RSA-style rule actually learns
// (it is the mechanism behind the paper's direction storage).
func TestSignAggregatorTrains(t *testing.T) {
	clients, test, net := buildFederation(t, 5, 600, 32)
	sim, err := NewSimulation(net, clients, Config{
		LearningRate: 1, Seed: 32,
		Aggregator: SignAggregator{Lambda: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := metrics.Accuracy(sim.GlobalModel(), test)
	if err := sim.RunContext(context.Background(), 80); err != nil {
		t.Fatal(err)
	}
	after := metrics.Accuracy(sim.GlobalModel(), test)
	t.Logf("rsa-sign training: %.3f -> %.3f", before, after)
	if after < before+0.2 {
		t.Errorf("sign aggregation failed to learn: %.3f -> %.3f", before, after)
	}
}

func TestRobustAggregatorsDeterministic(t *testing.T) {
	r := rng.New(33)
	grads := map[history.ClientID][]float64{}
	for i := 0; i < 30; i++ {
		g := make([]float64, 5)
		for j := range g {
			g[j] = r.NormalScaled(0, 1e6)
		}
		grads[history.ClientID(i)] = g
	}
	for _, agg := range []Aggregator{Median{}, TrimmedMean{Trim: 3}, Krum{F: 5}, SignAggregator{Lambda: 1}} {
		first, err := agg.Aggregate(grads, nil)
		if err != nil {
			t.Fatalf("%s: %v", agg.Name(), err)
		}
		for trial := 0; trial < 5; trial++ {
			got, err := agg.Aggregate(grads, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !tensor.Equal(got, first, 0) {
				t.Fatalf("%s is not deterministic", agg.Name())
			}
		}
	}
}
