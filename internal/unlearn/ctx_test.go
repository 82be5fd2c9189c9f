package unlearn

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"testing"

	"fuiov/internal/history"
	"fuiov/internal/telemetry"
	"fuiov/internal/tensor"
)

// TestBootstrapRetryExhaustedFallsBackOffline: when the client is
// unreachable, its one dispatch per missing round fails and the scheme
// takes the paper's offline path — the round is skipped, recovery
// still completes, and the fallback counter records it.
func TestBootstrapRetryExhaustedFallsBackOffline(t *testing.T) {
	const dim, f, total = 8, 3, 10
	store := buildGappyStore(t, dim, f, total)
	reg := telemetry.New()
	calls := map[string]int{}
	u, err := New(store, Config{
		LearningRate: 0.01,
		Telemetry:    reg,
		OnlineBootstrap: func(id history.ClientID, round int, _ []float64) ([]float64, error) {
			calls[fmt.Sprintf("%d/%d", id, round)]++
			return nil, errors.New("vehicle out of coverage")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.BootstrappedClients != 1 {
		t.Fatalf("bootstrap count = %d, want 1 (offline fallback)", res.BootstrappedClients)
	}
	if len(calls) == 0 {
		t.Error("no bootstrap dispatch")
	}
	for key, n := range calls {
		if n != 1 {
			t.Errorf("client/round %s dispatched %d times, want once", key, n)
		}
	}
	counters := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	if counters[string(telemetry.UnlearnBootstrapSkips)] == 0 {
		t.Error("offline fallback counter not incremented")
	}
	if !tensor.AllFinite(res.Params) {
		t.Fatal("non-finite recovery after offline fallback")
	}
}

// TestUnlearnContextCancelled: a pre-cancelled context returns
// immediately with context.Canceled and leaves the store readable.
func TestUnlearnContextCancelled(t *testing.T) {
	const dim, f, total = 8, 3, 10
	store := buildGappyStore(t, dim, f, total)
	u, err := New(store, Config{LearningRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := u.UnlearnContext(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if store.Rounds() != total {
		t.Errorf("store rounds %d after cancellation, want %d", store.Rounds(), total)
	}
	if _, err := store.Model(0); err != nil {
		t.Errorf("store unreadable after cancellation: %v", err)
	}
	// A fresh context over the same unlearner and store succeeds.
	if _, err := u.UnlearnContext(context.Background(), 1); err != nil {
		t.Fatalf("unlearn after cancelled attempt: %v", err)
	}
}

// cancelOnRound is a slog.Handler that counts recover_round records and
// cancels a context on the after-th one.
type cancelOnRound struct {
	seen, after int
	cancel      context.CancelFunc
}

func (h *cancelOnRound) Enabled(context.Context, slog.Level) bool { return true }
func (h *cancelOnRound) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *cancelOnRound) WithGroup(string) slog.Handler            { return h }

func (h *cancelOnRound) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "recover_round" {
		if h.seen++; h.seen == h.after {
			h.cancel()
		}
	}
	return nil
}

// TestUnlearnContextCancelMidRecovery: cancelling after the second
// recovered round's telemetry record stops recovery at the next round
// boundary.
func TestUnlearnContextCancelMidRecovery(t *testing.T) {
	const dim, f, total = 8, 3, 12
	store := buildGappyStore(t, dim, f, total)
	ctx, cancel := context.WithCancel(context.Background())
	h := &cancelOnRound{after: 2, cancel: cancel}
	reg := telemetry.New()
	reg.SetLogger(slog.New(h))
	u, err := New(store, Config{LearningRate: 0.01, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	_, err = u.UnlearnContext(ctx, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if h.seen > 3 {
		t.Errorf("recovery logged %d rounds after cancellation", h.seen)
	}
}

// TestUnlearnSentinelErrors: the typed sentinels surface through the
// public entry points for errors.Is dispatch.
func TestUnlearnSentinelErrors(t *testing.T) {
	empty, err := history.NewStore(4, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	u, err := New(empty, Config{LearningRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.UnlearnContext(context.Background(), 1); !errors.Is(err, history.ErrNoHistory) {
		t.Fatalf("empty store err = %v, want ErrNoHistory", err)
	}

	const dim, f, total = 8, 3, 10
	store := buildGappyStore(t, dim, f, total)
	u2, err := New(store, Config{LearningRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u2.UnlearnContext(context.Background(), 99); !errors.Is(err, history.ErrUnknownClient) {
		t.Fatalf("unknown client err = %v, want ErrUnknownClient", err)
	}
}
