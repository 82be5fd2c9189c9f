package unlearn

import (
	"context"
	"errors"
	"testing"

	"fuiov/internal/history"
	"fuiov/internal/tensor"
)

func TestUnlearnAndCommitRewritesHistory(t *testing.T) {
	fed := trainFederation(t, 5, 20, 4, 60)
	u, err := New(fed.store, Config{LearningRate: fed.lr})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := u.BeginCommit(1)
	if err != nil {
		t.Fatal(err)
	}
	res, rewritten, err := cp.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rewritten.Rounds() != fed.store.Rounds() {
		t.Fatalf("rounds = %d, want %d", rewritten.Rounds(), fed.store.Rounds())
	}
	// Forgotten client is gone everywhere.
	if _, err := rewritten.JoinRound(1); !errors.Is(err, history.ErrNoRecord) {
		t.Errorf("forgotten client still has membership: %v", err)
	}
	for round := 0; round < rewritten.Rounds(); round++ {
		if _, err := rewritten.Direction(round, 1); err == nil {
			t.Fatalf("forgotten client direction survives at round %d", round)
		}
	}
	// Prefix models identical; suffix models equal the recovered
	// trajectory (pre-update convention).
	f := res.BacktrackRound
	for round := 0; round <= f; round++ {
		want, _ := fed.store.Model(round)
		got, err := rewritten.Model(round)
		if err != nil {
			t.Fatal(err)
		}
		if !equal(got, want, 0) {
			t.Fatalf("prefix model %d differs", round)
		}
	}
	_, traj, _, _ := refRecover(t, fed.store, Config{LearningRate: fed.lr}, 1)
	for round := f + 1; round < rewritten.Rounds(); round++ {
		got, err := rewritten.Model(round)
		if err != nil {
			t.Fatal(err)
		}
		if !equal(got, traj[round-f-1], 0) {
			t.Fatalf("suffix model %d does not match recovered trajectory", round)
		}
	}
	// Remaining clients' directions are carried over exactly.
	for round := 0; round < rewritten.Rounds(); round++ {
		ids, err := rewritten.Participants(round)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			oldDir, err := fed.store.Direction(round, id)
			if err != nil {
				t.Fatal(err)
			}
			newDir, err := rewritten.Direction(round, id)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < oldDir.Len(); j++ {
				if oldDir.At(j) != newDir.At(j) {
					t.Fatalf("round %d client %d dir[%d] changed", round, id, j)
				}
			}
			ow, _ := fed.store.Weight(round, id)
			nw, _ := rewritten.Weight(round, id)
			if ow != nw {
				t.Fatalf("round %d client %d weight changed", round, id)
			}
		}
	}
	// Storage shrinks (one client's directions removed).
	if rewritten.Storage().DirectionBytes >= fed.store.Storage().DirectionBytes {
		t.Error("rewritten store did not shrink")
	}
}

func TestCommitEnablesSequentialUnlearning(t *testing.T) {
	fed := trainFederation(t, 6, 25, 3, 61)
	u, err := New(fed.store, Config{LearningRate: fed.lr})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := u.BeginCommit(1)
	if err != nil {
		t.Fatal(err)
	}
	_, afterFirst, err := cp.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Second request against the rewritten world.
	u2, err := New(afterFirst, Config{LearningRate: fed.lr})
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := u2.BeginCommit(2)
	if err != nil {
		t.Fatal(err)
	}
	res2, afterSecond, err := cp2.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllFinite(res2.Params) {
		t.Fatal("second recovery not finite")
	}
	if _, err := afterSecond.JoinRound(1); err == nil {
		t.Error("client 1 resurrected by second commit")
	}
	if _, err := afterSecond.JoinRound(2); err == nil {
		t.Error("client 2 not removed by second commit")
	}
	// Survivors remain.
	if _, err := afterSecond.JoinRound(0); err != nil {
		t.Errorf("client 0 lost: %v", err)
	}
}

func TestCommitRejectsHugeDelta(t *testing.T) {
	store, err := history.NewStore(4, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.RecordRound(0, make([]float64, 4),
		map[history.ClientID][]float64{1: {2, -2, 0, 2}}, nil); err != nil {
		t.Fatal(err)
	}
	u, err := New(store, Config{LearningRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.BeginCommit(1); err == nil {
		t.Error("delta >= 1 commit should error")
	}
}
