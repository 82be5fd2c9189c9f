package unlearn

import (
	"context"
	"testing"

	"fuiov/internal/history"
	"fuiov/internal/lbfgs"
)

// seedFixture builds a store where client 0 participated in every
// round 0..f, so its full L-BFGS bootstrap window is seedable from
// storage, and returns an unlearner plus the backtracked model w_F.
func seedFixture(tb testing.TB, dim, f int) (*Unlearner, []float64) {
	tb.Helper()
	store, err := history.NewStore(dim, 1e-6)
	if err != nil {
		tb.Fatal(err)
	}
	model := make([]float64, dim)
	g := make([]float64, dim)
	for round := 0; round <= f; round++ {
		for i := range g {
			g[i] = 0.1 * float64((round+i)%3-1)
		}
		err := store.RecordRound(round, model, map[history.ClientID][]float64{0: g}, nil)
		if err != nil {
			tb.Fatal(err)
		}
		for i := range model {
			model[i] -= 0.01 * g[i]
		}
	}
	u, err := New(store, Config{LearningRate: 0.01})
	if err != nil {
		tb.Fatal(err)
	}
	wF, err := store.Model(f)
	if err != nil {
		tb.Fatal(err)
	}
	return u, wF
}

// seedState builds a clientState ready for seedPairs.
func seedState(tb testing.TB, u *Unlearner, dim int) *clientState {
	tb.Helper()
	pb, err := lbfgs.NewPairBuffer(u.cfg.PairSize)
	if err != nil {
		tb.Fatal(err)
	}
	return &clientState{
		pairs: pb,
		raw:   make([]float64, dim),
		est:   make([]float64, dim),
	}
}

// TestBootstrapSeedAllocs pins the steady-state bootstrap window at
// zero allocations: once the pair buffer is full, seedPairs runs
// entirely on bootScratch and PairBuffer's recycled slots.
func TestBootstrapSeedAllocs(t *testing.T) {
	const dim, f = 4096, 3
	u, wF := seedFixture(t, dim, f)
	st := seedState(t, u, dim)
	sc := newBootScratch(dim)
	ctx := context.Background()
	// Warm up: fills the pair buffer so subsequent pushes recycle.
	if seeded, err := u.seedPairs(ctx, st, 0, f, wF, sc); err != nil || !seeded {
		t.Fatalf("warm-up seed: seeded=%v err=%v", seeded, err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		seeded, err := u.seedPairs(ctx, st, 0, f, wF, sc)
		if err != nil || !seeded {
			t.Fatalf("seeded=%v err=%v", seeded, err)
		}
	})
	if allocs != 0 {
		t.Errorf("seedPairs allocated %v per run, want 0", allocs)
	}
}

// BenchmarkBootstrapSeed measures seeding one client's full L-BFGS
// window (s pre-join rounds) from stored directions and snapshots.
func BenchmarkBootstrapSeed(b *testing.B) {
	const dim, f = 100_000, 3
	u, wF := seedFixture(b, dim, f)
	st := seedState(b, u, dim)
	sc := newBootScratch(dim)
	ctx := context.Background()
	if _, err := u.seedPairs(ctx, st, 0, f, wF, sc); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(dim * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.seedPairs(ctx, st, 0, f, wF, sc); err != nil {
			b.Fatal(err)
		}
	}
}
