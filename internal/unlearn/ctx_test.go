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

// TestBootstrapRetryRecovers: a transiently unreachable client fails
// its first dispatches but answers within the retry budget, so the
// bootstrap pair is still seeded and the retry counter accrues.
func TestBootstrapRetryRecovers(t *testing.T) {
	const dim, f, total = 8, 3, 10
	store := buildGappyStore(t, dim, f, total)
	reg := telemetry.New()
	failures := map[string]int{}
	u, err := New(store, Config{
		LearningRate: 0.01,
		Telemetry:    reg,
		OnlineBootstrap: func(id history.ClientID, round int, params []float64) ([]float64, error) {
			key := fmt.Sprintf("%d/%d", id, round)
			if failures[key] < 2 {
				failures[key]++
				return nil, errors.New("vehicle out of coverage")
			}
			g := make([]float64, dim)
			for i := range g {
				g[i] = 0.05 * float64(i%2*2-1)
			}
			return g, nil
		},
		BootstrapRetries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.BootstrappedClients != 2 {
		t.Fatalf("bootstrap count = %d, want 2 (retry should recover the dispatch)", res.BootstrappedClients)
	}
	var retries int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == string(telemetry.UnlearnBootstrapRetry) {
			retries = c.Value
		}
	}
	if retries == 0 {
		t.Error("bootstrap retry counter not incremented")
	}
}

// TestBootstrapRetryExhaustedFallsBackOffline: when the client stays
// unreachable past the retry budget, the scheme takes the paper's
// offline path — the round is skipped, recovery still completes, and
// the fallback counter records it.
func TestBootstrapRetryExhaustedFallsBackOffline(t *testing.T) {
	const dim, f, total = 8, 3, 10
	store := buildGappyStore(t, dim, f, total)
	reg := telemetry.New()
	calls := 0
	u, err := New(store, Config{
		LearningRate: 0.01,
		Telemetry:    reg,
		OnlineBootstrap: func(history.ClientID, int, []float64) ([]float64, error) {
			calls++
			return nil, errors.New("vehicle out of coverage")
		},
		BootstrapRetries: 2,
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
	if calls%3 != 0 || calls == 0 {
		t.Errorf("dispatch calls = %d, want a multiple of 3 (1 attempt + 2 retries)", calls)
	}
	counters := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	if counters[string(telemetry.UnlearnBootstrapSkips)] == 0 {
		t.Error("offline fallback counter not incremented")
	}
	if counters[string(telemetry.UnlearnBootstrapRetry)] == 0 {
		t.Error("retry counter not incremented")
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
