package strategy

import (
	"context"
	"errors"
	"testing"

	"fuiov/internal/faults"
	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/telemetry"
	"fuiov/internal/tensor"
)

// TestFedRecoverOfflineFallback: with a FaultPolicy, exact corrections
// whose client stays unreachable degrade to the estimated L-BFGS path
// instead of aborting the recovery — FedRecover's weak spot under IoV
// churn, handled gracefully.
func TestFedRecoverOfflineFallback(t *testing.T) {
	fx := trainWithFullHistory(t, 5, 24, 21)
	// Client 3 never answers during recovery.
	offline := faults.Func(func(id history.ClientID, _, _ int) faults.Outcome {
		return faults.Outcome{Crash: id == 3}
	})
	reg := telemetry.New()
	req := fx.request(1)
	req.Telemetry = reg
	res, err := FedRecover{
		warmup:       2,
		correctEvery: 8,
		faults:       offline,
		policy:       &fl.FaultPolicy{MaxRetries: 1},
	}.Unlearn(context.Background(), req)
	if err != nil {
		t.Fatalf("FedRecover with offline client: %v", err)
	}
	// Rounds 0, 1, 8 and 16 are exact; client 3 falls back in each,
	// after one retry.
	if got := reg.Counter(telemetry.FedRecoverOffline).Value(); got != 4 {
		t.Errorf("offline fallbacks = %d, want 4", got)
	}
	if got := reg.Counter(telemetry.FedRecoverRetries).Value(); got != 4 {
		t.Errorf("retries = %d, want 4", got)
	}
	if want := 4 * 4; res.ClientWork != want {
		t.Errorf("exact gradient calls = %d, want %d", res.ClientWork, want)
	}
	if !tensor.AllFinite(res.Params) {
		t.Fatal("non-finite recovery under faults")
	}
}

// TestFedRecoverStrictAbortsOnFault: without a policy an unreachable
// client is a hard error.
func TestFedRecoverStrictAbortsOnFault(t *testing.T) {
	fx := trainWithFullHistory(t, 4, 12, 23)
	ctx := context.Background()
	crash := faults.Func(func(id history.ClientID, _, _ int) faults.Outcome {
		return faults.Outcome{Crash: id == 2}
	})
	_, err := FedRecover{faults: crash}.Unlearn(ctx, fx.request(1))
	if !errors.Is(err, fl.ErrClientCrash) {
		t.Fatalf("strict err = %v, want ErrClientCrash", err)
	}

	// A client missing from the fleet is a typed error too.
	req := fx.request()
	req.Clients = fx.clients[:2]
	_, err = FedRecover{}.Unlearn(ctx, req)
	if !errors.Is(err, fl.ErrUnknownClient) {
		t.Fatalf("missing client err = %v, want ErrUnknownClient", err)
	}
}

// TestFedRecoverMissingClientDegradesWithPolicy: a shrunken fleet plus
// a policy means recovery proceeds on estimates alone.
func TestFedRecoverMissingClientDegradesWithPolicy(t *testing.T) {
	fx := trainWithFullHistory(t, 4, 12, 25)
	req := fx.request()
	req.Clients = fx.clients[:2]
	req.Telemetry = telemetry.New()
	res, err := FedRecover{policy: &fl.FaultPolicy{}}.Unlearn(context.Background(), req)
	if err != nil {
		t.Fatalf("FedRecover with shrunken fleet: %v", err)
	}
	if req.Telemetry.Counter(telemetry.FedRecoverOffline).Value() == 0 {
		t.Error("no offline fallbacks despite missing clients")
	}
	if !tensor.AllFinite(res.Params) {
		t.Fatal("non-finite recovery")
	}
}

// TestBaselineContextCancellation: all three baselines honour
// cancellation at their round boundaries.
func TestBaselineContextCancellation(t *testing.T) {
	fx := trainWithFullHistory(t, 4, 12, 27)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"retrain", "fedrecover", "fedrecovery"} {
		if _, err := Unlearn(ctx, name, fx.request(1)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s err = %v, want context.Canceled", name, err)
		}
	}
}

// TestFedRecoverEmptyHistorySentinel: the empty-history failure mode
// is a typed error.
func TestFedRecoverEmptyHistorySentinel(t *testing.T) {
	fx := trainWithFullHistory(t, 3, 6, 29)
	empty, err := NewFullHistory(fx.net.NumParams())
	if err != nil {
		t.Fatal(err)
	}
	req := fx.request(1)
	req.Full = empty
	_, err = Unlearn(context.Background(), "fedrecover", req)
	if !errors.Is(err, history.ErrNoHistory) {
		t.Fatalf("empty history err = %v, want ErrNoHistory", err)
	}
}

// TestRetrainUnderFaults: the injector and policy reach the inner
// simulation, so the retrain baseline can compete under the same
// unreliability as the round engine.
func TestRetrainUnderFaults(t *testing.T) {
	fx := trainWithFullHistory(t, 5, 10, 31)
	res, err := Retrain{
		faults: faults.NewPlan(31, faults.Spec{CrashProb: 0.3}),
		policy: &fl.FaultPolicy{MaxRetries: 2, Quorum: 0.5},
	}.Unlearn(context.Background(), fx.request(1))
	if err != nil {
		t.Fatalf("Retrain under faults: %v", err)
	}
	if !tensor.AllFinite(res.Params) {
		t.Fatal("non-finite retrain result")
	}
}
