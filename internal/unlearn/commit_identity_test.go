package unlearn

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

	"fuiov/internal/history"
	"fuiov/internal/telemetry"
)

// denseRecompressCommit is the store rewrite as it was before the
// packed carry-over: every remaining direction expanded to a dense
// vector, copied and handed to RecordRound, which compresses it again.
// It exists only here, as the oracle CommitPass must match byte for
// byte. The recovered trajectory comes from refRecover, so the oracle
// shares no recovery code with the pass.
func denseRecompressCommit(t *testing.T, u *Unlearner, reg *telemetry.Registry, forgotten history.ClientID) (*Result, *history.Store) {
	t.Helper()
	old := u.store
	f, err := old.JoinRound(forgotten)
	if err != nil {
		t.Fatal(err)
	}
	params, trajectory, _, _ := refRecover(t, old, u.cfg, forgotten)
	res := &Result{Params: params, BacktrackRound: f}
	dropped := map[history.ClientID]bool{forgotten: true}
	ns, err := history.NewStore(old.Dim(), old.Delta())
	if err != nil {
		t.Fatal(err)
	}
	ns.SetTelemetry(reg)
	for round := 0; round < old.Rounds(); round++ {
		model := trajectory[max(0, round-res.BacktrackRound-1)]
		if round <= res.BacktrackRound {
			if model, err = old.Model(round); err != nil {
				t.Fatal(err)
			}
		}
		participants, err := old.Participants(round)
		if err != nil {
			t.Fatal(err)
		}
		grads := map[history.ClientID][]float64{}
		weights := map[history.ClientID]float64{}
		for _, id := range participants {
			if dropped[id] {
				continue
			}
			dir, err := old.Direction(round, id)
			if err != nil {
				t.Fatal(err)
			}
			grads[id] = make([]float64, dir.Len())
			dir.DenseInto(grads[id])
			if weights[id], err = old.Weight(round, id); err != nil {
				t.Fatal(err)
			}
		}
		if err := ns.RecordRound(round, model, grads, weights); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range old.Clients() {
		if m, _ := old.MembershipOf(id); !dropped[id] && m.LeaveRound >= 0 {
			ns.NoteLeave(id, m.LeaveRound)
		}
	}
	return res, ns
}

// cancelAfter is a context that reports cancellation from its after-th
// Err call on, to stop a pass at a chosen point inside a round.
type cancelAfter struct {
	context.Context
	calls, after int
}

func (c *cancelAfter) Err() error {
	if c.calls++; c.calls >= c.after {
		return context.Canceled
	}
	return nil
}

func saved(t *testing.T, s *history.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCommitRewriteMatchesDenseRecompress pins the packed carry-over to
// the rewrite it replaced: same snapshot bytes, same storage report,
// same compressed-element count and same recovered model, reading from
// a resident store and from one whose snapshots are spilled, stop-the-
// world, advanced round by round, and cancelled and resumed inside
// rounds.
func TestCommitRewriteMatchesDenseRecompress(t *testing.T) {
	fed := trainFederation(t, 5, 14, 4, 23)
	fed.store.NoteLeave(3, 12)
	spilled, err := history.Load(bytes.NewReader(saved(t, fed.store)),
		history.WithSpill(t.TempDir(), 2))
	if err != nil {
		t.Fatal(err)
	}
	defer spilled.Close()
	if spilled.Storage().ModelBytesSpilled == 0 {
		t.Fatal("fixture did not spill any rounds")
	}
	cfg := Config{LearningRate: fed.lr, RefreshEvery: 3}
	ctx := context.Background()
	for name, store := range map[string]*history.Store{"resident": fed.store, "spilled": spilled} {
		u, err := New(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantReg := telemetry.New()
		wantRes, want := denseRecompressCommit(t, u, wantReg, 1)
		for _, drive := range []string{"stop-the-world", "stepwise", "interrupted"} {
			cp, err := u.BeginCommit(1)
			if err != nil {
				t.Fatal(err)
			}
			gotReg := telemetry.New()
			cp.ns.SetTelemetry(gotReg)
			switch drive {
			case "stepwise":
				// One round per call, the way an overlapped pass sees a
				// growing store.
				for limit := 1; limit <= store.Rounds(); limit++ {
					if err := cp.runAndRewrite(ctx, limit); err != nil {
						t.Fatal(err)
					}
				}
			case "interrupted":
				// Cancelled alternately between a round's rewrite and its
				// recovery (the second Err call of an iteration is
				// runTo's) and at the next round boundary; every resume
				// must pick up exactly where the pass stopped.
				for attempt := 0; cp.Lag() > 0; attempt++ {
					if attempt > 4*store.Rounds() {
						t.Fatalf("%s: interrupted pass makes no progress", name)
					}
					_, err := cp.Advance(&cancelAfter{Context: ctx, after: 2 + attempt%2})
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Fatal(err)
					}
				}
			}
			gotRes, got, err := cp.Commit(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved(t, got), saved(t, want)) {
				t.Errorf("%s %s: rewritten store's Save bytes differ from the dense-recompress rewrite", name, drive)
			}
			if got.Storage() != want.Storage() {
				t.Errorf("%s %s: Storage() = %+v, want %+v", name, drive, got.Storage(), want.Storage())
			}
			g := gotReg.Counter(telemetry.HistoryCompressedElems).Value()
			w := wantReg.Counter(telemetry.HistoryCompressedElems).Value()
			if g != w || w == 0 {
				t.Errorf("%s %s: %s = %d, want %d", name, drive, telemetry.HistoryCompressedElems, g, w)
			}
			if i := sameBits(gotRes.Params, wantRes.Params); i >= 0 {
				t.Errorf("%s %s: recovered params differ at %d", name, drive, i)
			}
		}
	}
}

// TestCommitRewriteCarriesPackedRecords asserts the rewrite neither
// expands nor copies a direction: the new store holds the very records
// the old one does, and a rewritten round allocates about one model
// snapshot — far from the one dense vector per remaining client the
// recompressing rewrite paid.
func TestCommitRewriteCarriesPackedRecords(t *testing.T) {
	const dim, rounds, clients, join = 8192, 12, 6, 8
	store := randomStore(t, 5, dim, rounds, clients, join)
	u, err := New(store, Config{LearningRate: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := u.BeginCommit(1)
	if err != nil {
		t.Fatal(err)
	}
	model := make([]float64, dim)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for round := 0; round < join; round++ { // rounds before F: no recovery runs between them
		if err := cp.rewriteRound(round, model); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / join
	if limit := uint64(8 * dim * 3 / 2); perRound > limit {
		t.Errorf("rewriteRound allocated %d B per round, want under %d (one %d B snapshot; a dense copy per client would be %d)",
			perRound, limit, 8*dim, 8*dim*(clients-1))
	}
	for round := 0; round < join; round++ {
		for id := history.ClientID(0); id < clients; id++ {
			oldDir, err := store.Direction(round, id)
			if err != nil {
				continue // client 1 before it joined
			}
			if newDir, err := cp.ns.Direction(round, id); err != nil || newDir != oldDir {
				t.Fatalf("round %d client %d: direction record not carried over (%v)", round, id, err)
			}
		}
	}
}
