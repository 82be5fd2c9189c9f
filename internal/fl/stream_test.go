package fl

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"fuiov/internal/history"
	"fuiov/internal/rng"
)

// synthUploads builds n deterministic (gradient, weight) uploads of
// the given dimension, keyed by client ID.
func synthUploads(n, dim int, seed uint64) (map[history.ClientID][]float64, map[history.ClientID]float64) {
	grads := make(map[history.ClientID][]float64, n)
	weights := make(map[history.ClientID]float64, n)
	for i := 0; i < n; i++ {
		id := history.ClientID(i)
		r := rng.New(rng.Mix(seed, uint64(i)))
		g := make([]float64, dim)
		for j := range g {
			g[j] = r.Normal()
		}
		grads[id] = g
		weights[id] = 1 + float64(r.IntN(5))
	}
	return grads, weights
}

func sortedClientIDs(grads map[history.ClientID][]float64) []history.ClientID {
	return sortedIDs(grads)
}

func TestShardOf(t *testing.T) {
	for _, shards := range []int{1, 2, 7, 64} {
		for id := history.ClientID(0); id < 1000; id++ {
			s := ShardOf(id, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", id, shards, s)
			}
			if s != ShardOf(id, shards) {
				t.Fatalf("ShardOf(%d, %d) not stable", id, shards)
			}
		}
	}
	if ShardOf(42, 1) != 0 {
		t.Error("single shard must absorb every client")
	}
}

// TestStreamP1BitIdentical is the streaming path's core contract: one
// shard, folds in ascending client order, and the resolved result is
// bit-for-bit the barrier path's AggregateInto.
func TestStreamP1BitIdentical(t *testing.T) {
	const n, dim = 137, 61
	grads, weights := synthUploads(n, dim, 99)
	ids := sortedClientIDs(grads)

	want := make([]float64, dim)
	if err := (FedAvg{}).AggregateInto(want, ids, grads, weights); err != nil {
		t.Fatal(err)
	}

	st, err := NewShardedFedAvg(dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := st.Add(id, grads[id], weights[id]); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]float64, dim)
	if err := st.Resolve(got); err != nil {
		t.Fatal(err)
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("bit mismatch at coordinate %d: stream %x, barrier %x",
				j, math.Float64bits(got[j]), math.Float64bits(want[j]))
		}
	}
}

// TestStreamShardedProperties checks the P > 1 contract: within 1e-12
// of the barrier result, bit-identical run to run, and bit-identical
// across arrival orders that preserve each shard's relative order.
func TestStreamShardedProperties(t *testing.T) {
	const n, dim, shards = 211, 47, 8
	grads, weights := synthUploads(n, dim, 7)
	ids := sortedClientIDs(grads)

	barrier := make([]float64, dim)
	if err := (FedAvg{}).AggregateInto(barrier, ids, grads, weights); err != nil {
		t.Fatal(err)
	}

	run := func(order []history.ClientID) []float64 {
		st, err := NewShardedFedAvg(dim, shards)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range order {
			if err := st.Add(id, grads[id], weights[id]); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]float64, dim)
		if err := st.Resolve(out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	a := run(ids)
	if !equal(a, barrier, 1e-12) {
		t.Error("sharded stream deviates from barrier beyond 1e-12")
	}
	b := run(ids)
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("run-to-run bit mismatch at coordinate %d", j)
		}
	}

	// Interleave the shards round-robin: a radically different global
	// arrival order that preserves each shard's internal order must
	// produce identical bits.
	byShard := make([][]history.ClientID, shards)
	for _, id := range ids {
		s := ShardOf(id, shards)
		byShard[s] = append(byShard[s], id)
	}
	var interleaved []history.ClientID
	for k := 0; len(interleaved) < len(ids); k++ {
		for s := 0; s < shards; s++ {
			if k < len(byShard[s]) {
				interleaved = append(interleaved, byShard[s][k])
			}
		}
	}
	c := run(interleaved)
	for j := range a {
		if a[j] != c[j] {
			t.Fatalf("per-shard-order-preserving permutation changed bit %d", j)
		}
	}
}

func TestStreamResolveRepeatableAndReset(t *testing.T) {
	const dim = 9
	st, err := NewShardedFedAvg(dim, 4)
	if err != nil {
		t.Fatal(err)
	}
	grads, weights := synthUploads(20, dim, 3)
	for _, id := range sortedClientIDs(grads) {
		if err := st.Add(id, grads[id], weights[id]); err != nil {
			t.Fatal(err)
		}
	}
	first := make([]float64, dim)
	if err := st.Resolve(first); err != nil {
		t.Fatal(err)
	}
	again := make([]float64, dim)
	if err := st.Resolve(again); err != nil {
		t.Fatal(err)
	}
	for j := range first {
		if first[j] != again[j] {
			t.Fatal("Resolve is not repeatable")
		}
	}
	if st.Folded() != 20 {
		t.Fatalf("Folded = %d, want 20", st.Folded())
	}
	if st.Bytes() != 8*dim*4 {
		t.Fatalf("Bytes = %d, want %d", st.Bytes(), 8*dim*4)
	}
	st.Reset()
	if st.Folded() != 0 {
		t.Fatal("Reset did not clear the fold count")
	}
	if err := st.Resolve(first); err == nil {
		t.Fatal("Resolve after Reset with no folds should error")
	}
}

func TestStreamErrors(t *testing.T) {
	if _, err := NewShardedFedAvg(0, 1); err == nil {
		t.Error("zero dimension accepted")
	}
	if _, err := NewShardedFedAvg(4, 0); err == nil {
		t.Error("zero shards accepted")
	}
	st, err := NewShardedFedAvg(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add(1, []float64{1, 2}, 1); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if err := st.Add(1, []float64{1, 2, 3, 4}, -1); err == nil {
		t.Error("negative weight accepted")
	}
	if err := st.Add(1, []float64{1, 2, 3, 4}, 0); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 4)
	if err := st.Resolve(out); err == nil {
		t.Error("zero total weight accepted")
	}
	if err := st.Resolve(make([]float64, 3)); err == nil {
		t.Error("wrong-dimension dst accepted")
	}
}

// TestStreamConcurrentAdd exercises concurrent folding (run under
// -race in CI): the totals must come out right regardless of
// scheduling.
func TestStreamConcurrentAdd(t *testing.T) {
	const n, dim, shards = 256, 33, 8
	grads, weights := synthUploads(n, dim, 11)
	ids := sortedClientIDs(grads)
	st, err := NewShardedFedAvg(dim, shards)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id history.ClientID) {
			defer wg.Done()
			if err := st.Add(id, grads[id], weights[id]); err != nil {
				t.Error(err)
			}
		}(id)
	}
	wg.Wait()
	if st.Folded() != n {
		t.Fatalf("Folded = %d, want %d", st.Folded(), n)
	}
	barrier := make([]float64, dim)
	if err := (FedAvg{}).AggregateInto(barrier, ids, grads, weights); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, dim)
	if err := st.Resolve(got); err != nil {
		t.Fatal(err)
	}
	if !equal(got, barrier, 1e-9) {
		t.Error("concurrent stream deviates from barrier")
	}
}

func TestStreamingConfigFailFast(t *testing.T) {
	clients, _, net := buildFederation(t, 4, 400, 5)
	if _, err := NewSimulation(net, clients, Config{
		LearningRate: 0.1, StreamShards: 4,
	}); err == nil {
		t.Error("StreamShards without Streaming accepted")
	}
	if _, err := NewSimulation(net, clients, Config{
		LearningRate: 0.1, Streaming: true,
		Recorders: []Recorder{&recorderStub{}},
	}); err == nil {
		t.Error("Streaming with full-gradient Recorders accepted")
	}
}

type recorderStub struct{}

func (recorderStub) RecordRound(int, []float64, map[history.ClientID][]float64, map[history.ClientID]float64) error {
	return nil
}

// TestStreamingSimulationP1Bits runs the same federation through the
// barrier path and the streaming path with one shard: the committed
// parameters must agree bit for bit, round after round — with the
// whole fleet, and with a partial schedule that both modes must follow
// (a client sits out when (id+t)%3 == 0, so a recorded round lists
// exactly the others).
func TestStreamingSimulationP1Bits(t *testing.T) {
	const rounds = 3
	sitsOut := func(id history.ClientID, round int) bool { return (int(id)+round)%3 == 0 }
	run := func(streaming bool, shards int, partial bool) []float64 {
		clients, _, net := buildFederation(t, 6, 600, 21)
		cfg := Config{LearningRate: 0.2, Seed: 9, Parallelism: 3}
		if streaming {
			cfg.Streaming = true
			cfg.StreamShards = shards
		}
		if partial {
			store, err := history.NewStore(net.NumParams(), 1e-6)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Schedule = FuncSchedule(func(id history.ClientID, round int) bool { return !sitsOut(id, round) })
			cfg.Store = store
		}
		sim, err := NewSimulation(net, clients, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunContext(context.Background(), rounds); err != nil {
			t.Fatal(err)
		}
		for r := 0; partial && r < rounds; r++ {
			ids, err := cfg.Store.Participants(r)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, c := range clients {
				if !sitsOut(c.ID, r) {
					want++
				}
			}
			if want == len(clients) || len(ids) != want {
				t.Errorf("streaming=%v: round %d recorded %d participants, want the scheduled %d of %d", streaming, r, len(ids), want, len(clients))
			}
		}
		return sim.Params()
	}
	barrier := run(false, 0, false)
	p1 := run(true, 1, false)
	for j := range barrier {
		if barrier[j] != p1[j] {
			t.Fatalf("P=1 streaming deviates from barrier at parameter %d", j)
		}
	}
	p4a := run(true, 4, false)
	if !equal(p4a, barrier, 1e-9) {
		t.Error("P=4 streaming deviates from barrier beyond tolerance")
	}
	p4b := run(true, 4, false)
	for j := range p4a {
		if p4a[j] != p4b[j] {
			t.Fatalf("P=4 streaming not bit-reproducible at parameter %d", j)
		}
	}
	partialBarrier, partialP1 := run(false, 0, true), run(true, 1, true)
	for j := range partialBarrier {
		if partialBarrier[j] != partialP1[j] {
			t.Fatalf("partial schedule: P=1 streaming deviates from barrier at parameter %d", j)
		}
	}
}

// TestStreamingSimulationStore checks that a streamed round still
// feeds the history store (directions compressed at fold time) so
// unlearning remains available.
func TestStreamingSimulationStore(t *testing.T) {
	clients, _, net := buildFederation(t, 5, 500, 33)
	store, err := history.NewStore(net.NumParams(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulation(net, clients, Config{
		LearningRate: 0.2, Seed: 4, Streaming: true, StreamShards: 2, Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if store.Rounds() != 2 {
		t.Fatalf("store recorded %d rounds, want 2", store.Rounds())
	}
}

// TestRoundStreamDriver drives the coordinator-facing fold-on-arrival
// API and checks it commits the same bits as the in-process streaming
// loop given the same uploads.
func TestRoundStreamDriver(t *testing.T) {
	build := func() (*Simulation, []*Client) {
		clients, _, net := buildFederation(t, 5, 500, 13)
		sim, err := NewSimulation(net, clients, Config{
			LearningRate: 0.3, Seed: 2, Streaming: true, StreamShards: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim, clients
	}

	inProc, _ := build()
	if err := inProc.RunRoundContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	ext, clients := build()
	if _, err := ext.NewRoundStream(); err == nil {
		// first call should succeed; guard against accidental double-open below
	} else {
		t.Fatal(err)
	}
	// Only one stream may be open.
	if _, err := ext.NewRoundStream(); err == nil {
		t.Fatal("second open stream accepted")
	}
	// Reach the live stream through a fresh handle: abort and reopen.
	// (Exercises Abort's discard semantics too.)
	params := ext.Params()
	rs, err := func() (*RoundStream, error) {
		ext.liveStream.Abort()
		return ext.NewRoundStream()
	}()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range clients {
		g, err := c.ComputeGradient(ext.Template(), params, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Add(c.ID, g, c.Weight()); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate and unknown uploads are rejected with typed errors.
	if err := rs.Add(clients[0].ID, make([]float64, len(params)), 1); !errors.Is(err, ErrDuplicateUpload) {
		t.Errorf("duplicate error = %v, want ErrDuplicateUpload", err)
	}
	if err := rs.Add(9999, make([]float64, len(params)), 1); !errors.Is(err, ErrUnknownClient) {
		t.Errorf("unknown client error = %v, want ErrUnknownClient", err)
	}
	if rs.Folded() != len(clients) {
		t.Fatalf("Folded = %d, want %d", rs.Folded(), len(clients))
	}
	if err := ext.SubmitRoundStream(rs, len(clients)); err != nil {
		t.Fatal(err)
	}
	if err := ext.SubmitRoundStream(rs, len(clients)); err == nil {
		t.Fatal("double submit accepted")
	}

	want := inProc.Params()
	got := ext.Params()
	for j := range want {
		if want[j] != got[j] {
			t.Fatalf("externally driven stream deviates from in-process at parameter %d", j)
		}
	}
}

func TestSamplerCohort(t *testing.T) {
	sm := &Sampler{Seed: 5, K: 10}
	a := append([]int32(nil), sm.Cohort(3, 100)...)
	b := append([]int32(nil), sm.Cohort(3, 100)...)
	if len(a) != 10 {
		t.Fatalf("cohort size %d, want 10", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("cohort draw not deterministic in (seed, round)")
		}
	}
	seen := map[int32]bool{}
	for _, ix := range a {
		if ix < 0 || ix >= 100 {
			t.Fatalf("index %d out of range", ix)
		}
		if seen[ix] {
			t.Fatalf("index %d drawn twice", ix)
		}
		seen[ix] = true
	}
	c := sm.Cohort(4, 100)
	differs := false
	for i := range c {
		if c[i] != a[i] {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("rounds 3 and 4 drew identical cohorts")
	}
	if got := sm.Cohort(0, 7); len(got) != 7 {
		t.Errorf("n <= K cohort size %d, want 7", len(got))
	}
}
