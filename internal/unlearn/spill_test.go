package unlearn

import (
	"bytes"
	"context"
	"math"
	"testing"

	"fuiov/internal/history"
)

// TestUnlearnBitIdenticalWithSpill pins the acceptance criterion that
// backtracking and recovery from a spilled round F produce exactly the
// all-RAM result: the unlearner reads every spilled snapshot back
// through the store's pread path, and the recovered trajectory must
// not differ by a single bit.
func TestUnlearnBitIdenticalWithSpill(t *testing.T) {
	const joinRound = 4
	fed := trainFederation(t, 5, 12, joinRound, 9)

	// Clone the trained history into an aggressively spilling store:
	// window 2 keeps only the last two snapshots resident, so round
	// F=4 (and the whole bootstrap window before it) is on disk.
	var buf bytes.Buffer
	if err := fed.store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	spilled, err := history.Load(bytes.NewReader(buf.Bytes()),
		history.WithSpill(t.TempDir(), 2))
	if err != nil {
		t.Fatal(err)
	}
	defer spilled.Close()
	if rep := spilled.Storage(); rep.ModelBytesSpilled == 0 {
		t.Fatal("fixture did not spill any rounds")
	}

	cfg := Config{LearningRate: fed.lr, RefreshEvery: 3}
	uRAM, err := New(fed.store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	uSpill, err := New(spilled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := uRAM.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := uSpill.UnlearnContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if want.BacktrackRound != joinRound || got.BacktrackRound != joinRound {
		t.Fatalf("backtrack rounds %d / %d, want %d",
			want.BacktrackRound, got.BacktrackRound, joinRound)
	}
	for i := range want.Unlearned {
		if math.Float64bits(want.Unlearned[i]) != math.Float64bits(got.Unlearned[i]) {
			t.Fatalf("unlearned model differs at %d: %v vs %v",
				i, want.Unlearned[i], got.Unlearned[i])
		}
	}
	for i := range want.Params {
		if math.Float64bits(want.Params[i]) != math.Float64bits(got.Params[i]) {
			t.Fatalf("recovered model differs at %d: %v vs %v",
				i, want.Params[i], got.Params[i])
		}
	}
	if want.RecoveredRounds != got.RecoveredRounds ||
		want.BootstrappedClients != got.BootstrappedClients ||
		want.PairRefreshes != got.PairRefreshes ||
		want.DegenerateFallbacks != got.DegenerateFallbacks {
		t.Fatalf("result counters differ: %+v vs %+v", want, got)
	}
}
