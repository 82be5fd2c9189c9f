package fl

import (
	"context"
	"sync"
	"testing"

	"fuiov/internal/history"
	"fuiov/internal/telemetry"
)

// TestConcurrentRoundsAndStoreReads drives training rounds with
// parallel client computation while other goroutines hammer the
// history store's read paths and the telemetry registry. Its purpose
// is `go test -race ./...`: any unsynchronised access between the
// round loop, the store and the metric handles shows up here.
func TestConcurrentRoundsAndStoreReads(t *testing.T) {
	clients, _, net := buildFederation(t, 6, 600, 5)
	store, err := history.NewStore(net.NumParams(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	store.SetTelemetry(reg)
	sim, err := NewSimulation(net, clients, Config{
		LearningRate: 0.05,
		Seed:         5,
		Parallelism:  4,
		Store:        store,
		Telemetry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 15
	done := make(chan struct{})
	var wg sync.WaitGroup
	// Readers poll the store and registry while training is running.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				n := store.Rounds()
				if n > 0 {
					if _, err := store.Model(n - 1); err != nil {
						t.Error(err)
						return
					}
					if _, err := store.Participants(n - 1); err != nil {
						t.Error(err)
						return
					}
				}
				_ = store.Storage()
				_ = store.Clients()
				_ = reg.Snapshot()
				_ = reg.Counter(telemetry.FLRounds).Value()
				_ = reg.Timer(telemetry.FLRound).Stats()
			}
		}()
	}
	if err := sim.RunContext(context.Background(), rounds); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	if store.Rounds() != rounds {
		t.Errorf("store recorded %d rounds, want %d", store.Rounds(), rounds)
	}
	if got := reg.Counter(telemetry.FLRounds).Value(); got != rounds {
		t.Errorf("telemetry counted %d rounds, want %d", got, rounds)
	}
}

// TestConcurrentRoundsWithSpillingStore is the same writer/reader race
// with the bounded-memory snapshot tier enabled: the round loop spills
// old snapshots to disk while readers deliberately page them back in
// through ModelInto, so `go test -race` covers the RAM→file slot
// handoff as well.
func TestConcurrentRoundsWithSpillingStore(t *testing.T) {
	clients, _, net := buildFederation(t, 6, 600, 5)
	store, err := history.NewStore(net.NumParams(), 1e-3,
		history.WithSpill(t.TempDir(), 3))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg := telemetry.New()
	store.SetTelemetry(reg)
	sim, err := NewSimulation(net, clients, Config{
		LearningRate: 0.05,
		Seed:         6,
		Parallelism:  4,
		Store:        store,
		Telemetry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 15
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, net.NumParams())
			for {
				select {
				case <-done:
					return
				default:
				}
				n := store.Rounds()
				if n == 0 {
					continue
				}
				// Round 0 leaves the RAM window almost immediately, so
				// this read races the spill handoff on purpose.
				for _, tr := range []int{0, n - 1} {
					if err := store.ModelInto(tr, dst); err != nil {
						t.Errorf("ModelInto(%d): %v", tr, err)
						return
					}
				}
				_ = store.Storage()
			}
		}()
	}
	if err := sim.RunContext(context.Background(), rounds); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	if store.Rounds() != rounds {
		t.Errorf("store recorded %d rounds, want %d", store.Rounds(), rounds)
	}
	if got := reg.Counter(telemetry.HistorySpilledRounds).Value(); got != rounds-3 {
		t.Errorf("spilled %d rounds, want %d", got, rounds-3)
	}
}
