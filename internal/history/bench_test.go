package history

import (
	"testing"

	"fuiov/internal/rng"
)

// benchDim matches the sign-kernel benchmarks so the write-path cost
// here is directly comparable to the compression cost measured there.
const benchDim = 100_000

func benchRound(b *testing.B, clients int) ([]float64, map[ClientID][]float64) {
	b.Helper()
	r := rng.New(1)
	model := make([]float64, benchDim)
	for i := range model {
		model[i] = r.NormalScaled(0, 0.1)
	}
	grads := make(map[ClientID][]float64, clients)
	for c := 0; c < clients; c++ {
		g := make([]float64, benchDim)
		for i := range g {
			g[i] = r.NormalScaled(0, 0.01)
		}
		grads[ClientID(c)] = g
	}
	return model, grads
}

// BenchmarkHistoryRecordRound measures the full RSU write path — sign
// compression of every client gradient plus snapshot publication —
// for one round of 4 model-sized uploads.
func BenchmarkHistoryRecordRound(b *testing.B) {
	model, grads := benchRound(b, 4)
	s, err := NewStore(benchDim, 1e-6)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(grads)) * benchDim * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RecordRound(i, model, grads, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelIntoSpilled measures reading a snapshot back from the
// disk tier (cache defeated by cycling over more rounds than it
// holds), the unlearner's backtracking cost when the store runs in
// bounded-memory mode.
func BenchmarkModelIntoSpilled(b *testing.B) {
	model, grads := benchRound(b, 1)
	s, err := NewStore(benchDim, 1e-6, WithSpill(b.TempDir(), 1))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const cycle = spillCacheRounds + 1
	for t := 0; t <= cycle; t++ {
		if err := s.RecordRound(t, model, grads, nil); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]float64, benchDim)
	b.SetBytes(benchDim * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rounds 0..cycle-1 are spilled; reading them in turn evicts
		// each from the LRU cache before it comes round again, so
		// every read hits the file.
		if err := s.ModelInto(i%cycle, dst); err != nil {
			b.Fatal(err)
		}
	}
}
