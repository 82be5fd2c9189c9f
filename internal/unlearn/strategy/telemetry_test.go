package strategy

import (
	"context"
	"testing"

	"fuiov/internal/history"
	"fuiov/internal/telemetry"
)

// TestBaselinesTelemetry runs all three baselines instrumented and
// cross-checks their counters/timers against ground truth.
func TestBaselinesTelemetry(t *testing.T) {
	fx := trainWithFullHistory(t, 4, 10, 31)
	reg := telemetry.New()

	// FullHistory byte accounting: re-record the same rounds through an
	// instrumented copy and compare against StorageBytes.
	full2, err := NewFullHistory(fx.full.Dim())
	if err != nil {
		t.Fatal(err)
	}
	full2.SetTelemetry(reg)
	for r := 0; r < fx.full.Rounds(); r++ {
		model, err := fx.full.Model(r)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := fx.full.Participants(r)
		if err != nil {
			t.Fatal(err)
		}
		grads := make(map[history.ClientID][]float64, len(ids))
		weights := make(map[history.ClientID]float64, len(ids))
		for _, id := range ids {
			g, err := fx.full.Gradient(r, id)
			if err != nil {
				t.Fatal(err)
			}
			w, err := fx.full.Weight(r, id)
			if err != nil {
				t.Fatal(err)
			}
			grads[id] = g
			weights[id] = w
		}
		if err := full2.RecordRound(r, model, grads, weights); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter(telemetry.FullHistoryBytes).Value(); got != int64(full2.StorageBytes()) {
		t.Errorf("%s = %d, want %d", telemetry.FullHistoryBytes, got, full2.StorageBytes())
	}

	ctx := context.Background()
	req := fx.request(1)
	req.Rounds, req.Telemetry = 3, reg

	if _, err := Unlearn(ctx, "retrain", req); err != nil {
		t.Fatal(err)
	}
	if st := reg.Timer(telemetry.RetrainTotal).Stats(); st.Count != 1 {
		t.Errorf("retrain timer count = %d, want 1", st.Count)
	}
	// Retrain forwards the registry to its inner fl.Simulation.
	if got := reg.Counter(telemetry.FLRounds).Value(); got != 3 {
		t.Errorf("inner fl rounds = %d, want 3", got)
	}

	res, err := Unlearn(ctx, "fedrecover", req)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's schedule over 10 rounds: 0 and 1 exact, 8 estimated.
	if got := reg.Counter(telemetry.FedRecoverExact).Value(); got != int64(res.ClientWork) || got != 2*3 {
		t.Errorf("%s = %d, result says %d, want 6", telemetry.FedRecoverExact, got, res.ClientWork)
	}
	if got := reg.Counter(telemetry.FedRecoverEstimated).Value(); got != 8 {
		t.Errorf("%s = %d, want 8", telemetry.FedRecoverEstimated, got)
	}
	if st := reg.Timer(telemetry.FedRecoverTotal).Stats(); st.Count != 1 {
		t.Errorf("fedrecover timer count = %d, want 1", st.Count)
	}

	if _, err := Unlearn(ctx, "fedrecovery", req); err != nil {
		t.Fatal(err)
	}
	if st := reg.Timer(telemetry.FedRecoveryTotal).Stats(); st.Count != 1 {
		t.Errorf("fedrecovery timer count = %d, want 1", st.Count)
	}
}
