package unlearn

import (
	"context"
	"log/slog"
	"testing"

	"fuiov/internal/telemetry"
)

// TestUnlearnerTelemetry runs an instrumented unlearning pass and
// cross-checks every counter/gauge against the returned Result.
func TestUnlearnerTelemetry(t *testing.T) {
	const rounds, join = 30, 4
	fed := trainFederation(t, 4, rounds, join, 21)

	reg := telemetry.New()
	events := &recordHandler{}
	reg.SetLogger(slog.New(events))

	u, err := New(fed.store, Config{
		LearningRate:  fed.lr,
		ClipThreshold: 0.05,
		RefreshEvery:  7,
		Telemetry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	if got := reg.Gauge(telemetry.UnlearnBacktrackRound).Value(); got != float64(res.BacktrackRound) {
		t.Errorf("backtrack round gauge = %v, want %d", got, res.BacktrackRound)
	}
	if got := reg.Gauge(telemetry.UnlearnBacktrackDepth).Value(); got != float64(res.RecoveredRounds) {
		t.Errorf("backtrack depth gauge = %v, want %d", got, res.RecoveredRounds)
	}
	if got := reg.Counter(telemetry.UnlearnRecoveredRounds).Value(); got != int64(res.RecoveredRounds) {
		t.Errorf("recovered rounds counter = %d, want %d", got, res.RecoveredRounds)
	}
	if got := reg.Counter(telemetry.UnlearnPairRefreshes).Value(); got != int64(res.PairRefreshes) {
		t.Errorf("pair refreshes counter = %d, want %d", got, res.PairRefreshes)
	}
	if got := reg.Counter(telemetry.UnlearnFallbacks).Value(); got != int64(res.DegenerateFallbacks) {
		t.Errorf("fallbacks counter = %d, want %d", got, res.DegenerateFallbacks)
	}
	if got := reg.Counter(telemetry.UnlearnBootstraps).Value(); got != int64(res.BootstrappedClients) {
		t.Errorf("bootstraps counter = %d, want %d", got, res.BootstrappedClients)
	}
	// With L as small as 0.05 and unit-magnitude stored directions,
	// clipping must have fired many times.
	if got := reg.Counter(telemetry.UnlearnClipActivations).Value(); got == 0 {
		t.Error("clip activations counter never fired despite tight L")
	}
	if st := reg.Timer(telemetry.UnlearnRecoverRound).Stats(); st.Count != int64(res.RecoveredRounds) {
		t.Errorf("recover round timer count = %d, want %d", st.Count, res.RecoveredRounds)
	}
	if st := reg.Timer(telemetry.UnlearnEstimate).Stats(); st.Count != int64(res.RecoveredRounds) {
		t.Errorf("estimate timer count = %d, want %d", st.Count, res.RecoveredRounds)
	}

	if len(events.records) != res.RecoveredRounds {
		t.Fatalf("got %d recover_round records, want %d", len(events.records), res.RecoveredRounds)
	}
	first := events.records[0]
	attrs := make(map[string]slog.Value, first.NumAttrs())
	first.Attrs(func(a slog.Attr) bool {
		attrs[a.Key] = a.Value
		return true
	})
	if first.Message != "recover_round" || attrs["scope"].String() != "unlearn" ||
		attrs["round"].Int64() != int64(res.BacktrackRound) {
		t.Errorf("first record = %q %v", first.Message, attrs)
	}
	for _, want := range []string{"remaining", "fallbacks", "clipped", "estimate", "aggregate", "total"} {
		if _, ok := attrs[want]; !ok {
			t.Errorf("first record missing attribute %q", want)
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

// TestUnlearnerTelemetryDisabledMatches guards that instrumentation
// cannot change the recovered model.
func TestUnlearnerTelemetryDisabledMatches(t *testing.T) {
	fed := trainFederation(t, 4, 20, 3, 23)
	run := func(reg *telemetry.Registry) []float64 {
		u, err := New(fed.store, Config{
			LearningRate: fed.lr, ClipThreshold: 0.05, Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := u.UnlearnContext(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.Params
	}
	plain := run(nil)
	instrumented := run(telemetry.New())
	for i := range plain {
		if plain[i] != instrumented[i] {
			t.Fatalf("param %d differs with telemetry on: %v vs %v", i, plain[i], instrumented[i])
		}
	}
}

func TestClipCount(t *testing.T) {
	g := []float64{2, -0.01, -3, 0.02}
	if n := ClipCount(g, 1, ClipElementwise); n != 2 {
		t.Errorf("elementwise clip count = %d, want 2", n)
	}
	if g[0] != 1 || g[2] != -1 {
		t.Errorf("clipped values = %v", g)
	}
	if n := ClipCount([]float64{3, 4}, 1, ClipNorm); n != 1 {
		t.Errorf("norm clip count = %d, want 1", n)
	}
	if n := ClipCount([]float64{0.1, 0.1}, 1, ClipNorm); n != 0 {
		t.Errorf("norm clip count below threshold = %d, want 0", n)
	}
	if n := ClipCount([]float64{100}, 1, ClipOff); n != 0 {
		t.Errorf("off-mode clip count = %d, want 0", n)
	}
}
