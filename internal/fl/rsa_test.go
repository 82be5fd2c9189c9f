package fl

import (
	"context"
	"hash/fnv"
	"math"
	"testing"

	"fuiov/internal/attack"
	"fuiov/internal/faults"
	"fuiov/internal/history"
	"fuiov/internal/metrics"
	"fuiov/internal/tensor"
)

func TestRSAValidation(t *testing.T) {
	clients, _, net := buildFederation(t, 3, 300, 40)
	if _, err := NewRSASimulation(nil, clients, RSAConfig{LearningRate: 0.1, Lambda: 0.01}); err == nil {
		t.Error("nil template should error")
	}
	if _, err := NewRSASimulation(net, nil, RSAConfig{LearningRate: 0.1, Lambda: 0.01}); err == nil {
		t.Error("no clients should error")
	}
	if _, err := NewRSASimulation(net, clients, RSAConfig{Lambda: 0.01}); err == nil {
		t.Error("zero learning rate should error")
	}
	if _, err := NewRSASimulation(net, clients, RSAConfig{LearningRate: 0.1}); err == nil {
		t.Error("zero lambda should error")
	}
	if _, err := NewRSASimulation(net, clients, RSAConfig{LearningRate: 0.1, Lambda: 0.01, Rho: -1}); err == nil {
		t.Error("negative rho should error")
	}
	dup := []*Client{clients[0], {ID: clients[0].ID, Data: clients[0].Data}}
	if _, err := NewRSASimulation(net, dup, RSAConfig{LearningRate: 0.1, Lambda: 0.01}); err == nil {
		t.Error("duplicate IDs should error")
	}
	empty := []*Client{{ID: 9}}
	if _, err := NewRSASimulation(net, empty, RSAConfig{LearningRate: 0.1, Lambda: 0.01}); err == nil {
		t.Error("client without data should error")
	}
}

func TestRSATrains(t *testing.T) {
	clients, test, net := buildFederation(t, 5, 700, 41)
	sim, err := NewRSASimulation(net, clients, RSAConfig{
		LearningRate: 0.01, Lambda: 0.5, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := metrics.Accuracy(sim.ServerModel(), test)
	if err := sim.RunContext(context.Background(), 120); err != nil {
		t.Fatal(err)
	}
	after := metrics.Accuracy(sim.ServerModel(), test)
	t.Logf("rsa server: %.3f -> %.3f", before, after)
	if after < before+0.25 {
		t.Fatalf("RSA did not learn: %.3f -> %.3f", before, after)
	}
	if sim.Round() != 120 {
		t.Errorf("Round = %d", sim.Round())
	}
}

func TestRSALocalModelsTrackServer(t *testing.T) {
	clients, _, net := buildFederation(t, 4, 400, 42)
	sim, err := NewRSASimulation(net, clients, RSAConfig{
		LearningRate: 0.01, Lambda: 0.5, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	server := sim.ServerParams()
	for _, c := range clients {
		local, err := sim.LocalParams(c.ID)
		if err != nil {
			t.Fatal(err)
		}
		dist := tensor.Norm2(tensor.Sub(local, server))
		rel := dist / (tensor.Norm2(server) + 1e-12)
		if rel > 1.5 {
			t.Errorf("client %d local model diverged: relative distance %.3f", c.ID, rel)
		}
	}
	if _, err := sim.LocalParams(99); err == nil {
		t.Error("unknown client should error")
	}
}

func TestRSABoundedByzantineInfluence(t *testing.T) {
	// The defining property (§III-C): an attacker sending arbitrarily
	// huge gradients moves the server no more than any honest client,
	// because only signs cross the wire. Compare the server trajectory
	// with a moderate vs an enormous attacker — the difference must be
	// tiny compared to FedAvg under the same attack.
	run := func(magnitude float64) []float64 {
		clients, _, net := buildFederation(t, 5, 400, 43)
		clients[0].GradAttack = &attack.SignFlip{Magnitude: magnitude}
		sim, err := NewRSASimulation(net, clients, RSAConfig{
			LearningRate: 0.01, Lambda: 0.5, Seed: 43,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunContext(context.Background(), 30); err != nil {
			t.Fatal(err)
		}
		return sim.ServerParams()
	}
	small := run(1)
	huge := run(1e6)
	dist := tensor.Norm2(tensor.Sub(small, huge))
	scale := tensor.Norm2(small)
	t.Logf("RSA server shift from 1e6x attacker amplification: %.4f (|w|=%.3f)", dist, scale)
	// The attacker's own local trajectory changes, so the server is
	// not bit-identical, but amplification must NOT scale the
	// influence.
	if dist > 0.5*scale {
		t.Errorf("attacker magnitude leaked into server update: dist=%.4f scale=%.4f", dist, scale)
	}

	// Contrast: FedAvg under the same amplification moves by orders of
	// magnitude.
	runAvg := func(magnitude float64) []float64 {
		clients, _, net := buildFederation(t, 5, 400, 43)
		clients[0].GradAttack = &attack.SignFlip{Magnitude: magnitude}
		sim, err := NewSimulation(net, clients, Config{LearningRate: 0.01, Seed: 43})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunContext(context.Background(), 30); err != nil {
			t.Fatal(err)
		}
		return sim.Params()
	}
	avgDist := tensor.Norm2(tensor.Sub(runAvg(1), runAvg(1e6)))
	t.Logf("FedAvg server shift under the same amplification: %.1f", avgDist)
	if avgDist < 100*dist {
		t.Errorf("expected FedAvg (%.2f) to move far more than RSA (%.2f)", avgDist, dist)
	}
}

func TestRSADeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) []float64 {
		clients, _, net := buildFederation(t, 6, 400, 44)
		sim, err := NewRSASimulation(net, clients, RSAConfig{
			LearningRate: 0.01, Lambda: 0.3, Seed: 44, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunContext(context.Background(), 10); err != nil {
			t.Fatal(err)
		}
		return sim.ServerParams()
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("param %d differs across parallelism", i)
		}
	}
}

func TestRSARegularizerPullsToZero(t *testing.T) {
	// With a strong rho and lambda=small, the server model shrinks
	// towards the origin.
	clients, _, net := buildFederation(t, 3, 300, 45)
	sim, err := NewRSASimulation(net, clients, RSAConfig{
		LearningRate: 0.05, Lambda: 1e-6, Rho: 1, Seed: 45,
	})
	if err != nil {
		t.Fatal(err)
	}
	norm0 := tensor.Norm2(sim.ServerParams())
	if err := sim.RunContext(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	norm1 := tensor.Norm2(sim.ServerParams())
	if norm1 >= norm0 {
		t.Errorf("rho regulariser did not shrink server: %.4f -> %.4f", norm0, norm1)
	}
}

// TestRSAParamsPinned pins the server and personal models of three
// short RSA runs — fault-free, degraded under a policy, and strict with
// corrupt uploads flowing in unvalidated — to checksums taken before
// the client fan-out moved into the helper Simulation shares.
func TestRSAParamsPinned(t *testing.T) {
	corrupt := faults.Func(func(id history.ClientID, round, _ int) faults.Outcome {
		return faults.Outcome{Corrupt: id == 2 && round == 3}
	})
	for _, tc := range []struct {
		name string
		cfg  RSAConfig
		want uint64
	}{
		{"clean", RSAConfig{Rho: 0.01}, 0xc353074833ff94f5},
		{"policy", RSAConfig{
			Faults:      faults.NewPlan(46, faults.Spec{CrashProb: 0.3, CorruptProb: 0.1}),
			FaultPolicy: &FaultPolicy{MaxRetries: 1, Quorum: 0.25},
		}, 0x636dc09f78bc1fa6},
		{"strict-corrupt", RSAConfig{Faults: corrupt}, 0xf282b6ddf48e41d9},
	} {
		for _, par := range []int{1, 3} {
			clients, _, net := buildFederation(t, 5, 400, 46)
			cfg := tc.cfg
			cfg.LearningRate, cfg.Lambda, cfg.Seed, cfg.Parallelism = 0.02, 0.3, 46, par
			sim, err := NewRSASimulation(net, clients, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.RunContext(context.Background(), 8); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			h := fnv.New64a()
			hash := func(v []float64) {
				var b [8]byte
				for _, x := range v {
					u := math.Float64bits(x)
					for i := range b {
						b[i] = byte(u >> (8 * i))
					}
					h.Write(b[:])
				}
			}
			hash(sim.ServerParams())
			for _, c := range clients {
				local, err := sim.LocalParams(c.ID)
				if err != nil {
					t.Fatal(err)
				}
				hash(local)
			}
			if got := h.Sum64(); got != tc.want {
				t.Errorf("%s P=%d: params checksum %#x, want %#x", tc.name, par, got, tc.want)
			}
		}
	}
}
