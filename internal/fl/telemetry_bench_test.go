package fl

import (
	"context"
	"log/slog"
	"testing"

	"fuiov/internal/dataset"
	"fuiov/internal/history"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
	"fuiov/internal/telemetry"
)

func benchSimulation(b *testing.B, reg *telemetry.Registry) *Simulation {
	b.Helper()
	const n, samples, seed = 8, 800, 17
	d := dataset.SynthDigits(dataset.DefaultDigits(samples, seed))
	r := rng.New(seed)
	shards, err := dataset.PartitionIID(d, r, n)
	if err != nil {
		b.Fatal(err)
	}
	clients := make([]*Client, n)
	for i := range clients {
		clients[i] = &Client{ID: history.ClientID(i), Data: shards[i], BatchSize: 32}
	}
	net := nn.NewMLP(d.Dims.Size(), 24, d.Classes)
	net.Init(r.Split(1000))
	store, err := history.NewStore(net.NumParams(), 1e-3)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := NewSimulation(net, clients, Config{
		LearningRate: 0.05, Seed: seed, Store: store, Telemetry: reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

// BenchmarkSimulationRoundTelemetry quantifies the telemetry tax on a
// full federated round (8 clients, MLP, history recording):
//
//	disabled — cfg.Telemetry == nil, the no-op handle path. The ISSUE
//	           acceptance bar is that this stays within 5% of what an
//	           uninstrumented round costs; the only added work is one
//	           nil check per handle operation (~10 per round).
//	enabled  — live registry, no logger.
//	observed — live registry + a logger whose handler drops records.
func BenchmarkSimulationRoundTelemetry(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		sim := benchSimulation(b, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sim.RunRoundContext(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		sim := benchSimulation(b, telemetry.New())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sim.RunRoundContext(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("observed", func(b *testing.B) {
		reg := telemetry.New()
		reg.SetLogger(slog.New(discardHandler{}))
		sim := benchSimulation(b, reg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sim.RunRoundContext(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// discardHandler is enabled at every level and drops each record
// without formatting it, isolating the emit overhead from the sink
// cost.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return true }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }
