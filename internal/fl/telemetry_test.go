package fl

import (
	"context"
	"log/slog"
	"strings"
	"testing"

	"fuiov/internal/dataset"
	"fuiov/internal/history"
	"fuiov/internal/nn"
	"fuiov/internal/rng"
	"fuiov/internal/telemetry"
)

// TestRunRoundCollectsAllClientErrors verifies that a failed round
// reports every failing client, not just the first.
func TestRunRoundCollectsAllClientErrors(t *testing.T) {
	clients, _, net := buildFederation(t, 4, 400, 5)
	clients[1].Data = nil // fails: no data
	clients[3].Data = nil // fails: no data
	// Weight() dereferences Data, so keep failing clients' weights out
	// of play by ensuring the round errors before weights are read.
	sim, err := NewSimulation(net, clients, Config{LearningRate: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	err = sim.RunRoundContext(context.Background())
	if err == nil {
		t.Fatal("round with failing clients must error")
	}
	msg := err.Error()
	for _, want := range []string{"client 1", "client 3"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %s", msg, want)
		}
	}
	if strings.Contains(msg, "client 0") || strings.Contains(msg, "client 2") {
		t.Errorf("error %q mentions a healthy client", msg)
	}
	if sim.Round() != 0 {
		t.Errorf("failed round advanced the clock to %d", sim.Round())
	}
}

// TestSimulationTelemetry runs a few instrumented rounds and checks
// counters, phase timers and the per-round event stream.
func TestSimulationTelemetry(t *testing.T) {
	clients, _, net := buildFederation(t, 3, 300, 7)
	reg := telemetry.New()
	events := &recordHandler{}
	reg.SetLogger(slog.New(events))

	store, err := history.NewStore(net.NumParams(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulation(net, clients, Config{
		LearningRate: 0.05, Seed: 7, Store: store, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 4
	if err := sim.RunContext(context.Background(), rounds); err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter(telemetry.FLRounds).Value(); got != rounds {
		t.Errorf("%s = %d, want %d", telemetry.FLRounds, got, rounds)
	}
	if got := reg.Counter(telemetry.FLParticipants).Value(); got != rounds*3 {
		t.Errorf("%s = %d, want %d", telemetry.FLParticipants, got, rounds*3)
	}
	if got := reg.Counter(telemetry.FLClientErrors).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", telemetry.FLClientErrors, got)
	}
	for _, name := range []string{
		telemetry.FLRound, telemetry.FLRoundCompute,
		telemetry.FLRoundRecord, telemetry.FLRoundAggregate,
	} {
		st := reg.Timer(name).Stats()
		if st.Count != rounds {
			t.Errorf("timer %s count = %d, want %d", name, st.Count, rounds)
		}
		if st.Min < 0 || st.Max < st.Min || st.Total <= 0 {
			t.Errorf("timer %s implausible stats %+v", name, st)
		}
	}

	if len(events.records) != rounds {
		t.Fatalf("got %d round records, want %d", len(events.records), rounds)
	}
	for i, r := range events.records {
		attrs := recordAttrs(r)
		if r.Message != "round" || attrs["scope"].String() != "fl" || attrs["round"].Int64() != int64(i) {
			t.Errorf("record %d = %q %v", i, r.Message, attrs)
		}
		for _, want := range []string{"participants", "compute", "record", "aggregate", "total"} {
			if _, ok := attrs[want]; !ok {
				t.Errorf("record %d missing attribute %q", i, want)
			}
		}
	}
}

// recordHandler is a slog.Handler keeping every record it is handed.
type recordHandler struct{ records []slog.Record }

func (h *recordHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *recordHandler) Handle(_ context.Context, r slog.Record) error {
	h.records = append(h.records, r)
	return nil
}

func (h *recordHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *recordHandler) WithGroup(string) slog.Handler      { return h }

// recordAttrs indexes a record's attributes by key.
func recordAttrs(r slog.Record) map[string]slog.Value {
	attrs := make(map[string]slog.Value, r.NumAttrs())
	r.Attrs(func(a slog.Attr) bool {
		attrs[a.Key] = a.Value
		return true
	})
	return attrs
}

// TestSimulationTelemetryErrorsCounted checks the client-error counter.
func TestSimulationTelemetryErrorsCounted(t *testing.T) {
	clients, _, net := buildFederation(t, 3, 300, 9)
	clients[2].Data = nil
	reg := telemetry.New()
	sim, err := NewSimulation(net, clients, Config{LearningRate: 0.05, Seed: 9, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunRoundContext(context.Background()); err == nil {
		t.Fatal("expected round error")
	}
	if got := reg.Counter(telemetry.FLClientErrors).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", telemetry.FLClientErrors, got)
	}
}

// TestDeterminismWithTelemetry guards the invariant that enabling
// telemetry cannot change training results.
func TestDeterminismWithTelemetry(t *testing.T) {
	run := func(reg *telemetry.Registry) []float64 {
		clients, _, net := buildFederation(t, 4, 400, 13)
		sim, err := NewSimulation(net, clients, Config{
			LearningRate: 0.05, Seed: 13, Parallelism: 2, Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunContext(context.Background(), 3); err != nil {
			t.Fatal(err)
		}
		return sim.Params()
	}
	plain := run(nil)
	instrumented := run(telemetry.New())
	if len(plain) != len(instrumented) {
		t.Fatal("dimension mismatch")
	}
	for i := range plain {
		if plain[i] != instrumented[i] {
			t.Fatalf("param %d differs: %v vs %v", i, plain[i], instrumented[i])
		}
	}
}

// TestSimulationKernelTimers runs one instrumented round over a CNN
// and checks that compute time is attributed to the pack/GEMM/unpack
// kernel timers (the conv layers exercise all three).
func TestSimulationKernelTimers(t *testing.T) {
	const img = 8
	d := dataset.SynthDigits(dataset.SynthConfig{
		Samples: 60, Img: img, Classes: 4, Noise: 0.25, Seed: 31,
	})
	r := rng.New(31)
	shards, err := dataset.PartitionIID(d, r, 2)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, len(shards))
	for i := range clients {
		clients[i] = &Client{ID: history.ClientID(i), Data: shards[i], BatchSize: 16}
	}
	net := nn.NewDigitsCNN(img, d.Classes)
	net.Init(r.Split(7))

	reg := telemetry.New()
	sim, err := NewSimulation(net, clients, Config{LearningRate: 0.05, Seed: 31, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !nn.KernelTimingEnabled() {
		t.Fatal("NewSimulation with telemetry must enable kernel timing")
	}
	defer nn.EnableKernelTiming(false)
	if err := sim.RunRoundContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		telemetry.NNKernelPack, telemetry.NNKernelGEMM, telemetry.NNKernelUnpack,
	} {
		st := reg.Timer(name).Stats()
		if st.Count != 1 {
			t.Errorf("timer %s count = %d, want 1", name, st.Count)
		}
		if st.Total <= 0 {
			t.Errorf("timer %s recorded no time", name)
		}
	}
}
