package unlearn

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"fuiov/internal/history"
)

// queueWorld is a self-contained training world for queue tests: a
// live history store fed by a deterministic synthetic trainer, with
// the append/commit exclusion the server would provide via its engine
// lock.
type queueWorld struct {
	t       *testing.T
	mu      sync.Mutex
	store   *history.Store
	params  []float64
	clients []history.ClientID
	lr      float64
	// commitSnapshot captures the rewritten store's bytes inside the
	// commit exclusion, before any later round is appended to it.
	commitSnapshot []byte
}

const queueDim = 8

// synthFill writes a deterministic pseudo-random vector in [−1, 1].
func synthFill(dst []float64, seed uint64) {
	x := seed*2654435761 + 0x9e3779b97f4a7c15
	for i := range dst {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		dst[i] = float64(int64(x%2001)-1000) / 1000
	}
}

func newQueueWorld(t *testing.T, clients int) *queueWorld {
	t.Helper()
	st, err := history.NewStore(queueDim, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	w := &queueWorld{t: t, store: st, params: make([]float64, queueDim), lr: 0.05}
	for id := 0; id < clients; id++ {
		w.clients = append(w.clients, history.ClientID(id))
	}
	synthFill(w.params, 1)
	return w
}

// trainRound appends one synthetic round to the live store. Client id
// participates from round 2·id on (staggered joins). Everything is a
// pure function of the round index, so two worlds driven through the
// same schedule hold byte-identical histories.
func (w *queueWorld) trainRound() {
	w.mu.Lock()
	defer w.mu.Unlock()
	t := w.store.Rounds()
	grads := make(map[history.ClientID][]float64)
	weights := make(map[history.ClientID]float64)
	agg := make([]float64, queueDim)
	n := 0
	for _, id := range w.clients {
		if t < 2*int(id) {
			continue
		}
		g := make([]float64, queueDim)
		synthFill(g, uint64(t)<<20|uint64(id)+2)
		grads[id] = g
		weights[id] = 1
		for k, v := range g {
			agg[k] += v
		}
		n++
	}
	if err := w.store.RecordRound(t, w.params, grads, weights); err != nil {
		w.t.Error(err)
	}
	for k := range w.params {
		w.params[k] -= w.lr * agg[k] / float64(n)
	}
}

func (w *queueWorld) queueConfig(paused bool) QueueConfig {
	return QueueConfig{
		Store: func() *history.Store {
			w.mu.Lock()
			defer w.mu.Unlock()
			return w.store
		},
		Config:      Config{LearningRate: w.lr, Parallelism: 1, RefreshEvery: 3},
		StartPaused: paused,
		Commit: func(finish func() (*QueueCommit, error)) error {
			w.mu.Lock()
			defer w.mu.Unlock()
			qc, err := finish()
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := qc.Store.Save(&buf); err != nil {
				return err
			}
			w.commitSnapshot = buf.Bytes()
			w.store = qc.Store
			copy(w.params, qc.Result.Params)
			return nil
		},
	}
}

func waitDone(t *testing.T, q *Queue, id string) RequestInfo {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := q.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return info
}

// TestQueueRoundTrip is the check.sh smoke: one request through a live
// queue commits and leaves the world consistent.
func TestQueueRoundTrip(t *testing.T) {
	w := newQueueWorld(t, 4)
	for i := 0; i < 12; i++ {
		w.trainRound()
	}
	q, err := NewQueue(w.queueConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	id, err := q.Submit(2)
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, q, id)
	if info.State != StateDone {
		t.Fatalf("state = %s (err %v), want done", info.State, info.Err)
	}
	if info.Result == nil || info.Result.BacktrackRound != 4 {
		t.Fatalf("result %+v, want backtrack to round 4", info.Result)
	}
	if _, err := w.store.MembershipOf(2); err == nil {
		t.Fatal("committed store still knows client 2")
	}
	if got := w.store.Rounds(); got != 12 {
		t.Fatalf("committed store has %d rounds, want 12", got)
	}
}

// TestQueueCoalescing submits K requests against a paused queue and
// checks they fold into exactly one pass forgetting the union.
func TestQueueCoalescing(t *testing.T) {
	w := newQueueWorld(t, 6)
	for i := 0; i < 14; i++ {
		w.trainRound()
	}
	q, err := NewQueue(w.queueConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	ids := make([]string, 0, 3)
	for _, c := range []history.ClientID{5, 3, 4} {
		id, err := q.Submit(c)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	q.Start()
	var results []*Result
	for _, id := range ids {
		info := waitDone(t, q, id)
		if info.State != StateDone {
			t.Fatalf("request %s: state %s (err %v)", id, info.State, info.Err)
		}
		results = append(results, info.Result)
	}
	st := q.Stats()
	if st.Passes != 1 {
		t.Fatalf("passes = %d, want 1 (coalesced)", st.Passes)
	}
	if st.Coalesced != 2 {
		t.Fatalf("coalesced = %d, want 2", st.Coalesced)
	}
	for _, res := range results {
		if res != results[0] {
			t.Fatal("coalesced requests should share one result")
		}
	}
	want := []history.ClientID{3, 4, 5}
	got := results[0].Forgotten
	if len(got) != len(want) {
		t.Fatalf("forgotten %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("forgotten %v, want %v", got, want)
		}
	}
	// One pass for three requests backtracks to min join = 2·3.
	if results[0].BacktrackRound != 6 {
		t.Fatalf("backtrack = %d, want 6", results[0].BacktrackRound)
	}
}

// TestQueueDedup checks that a second request naming an already-queued
// client returns the existing request ID.
func TestQueueDedup(t *testing.T) {
	w := newQueueWorld(t, 4)
	for i := 0; i < 10; i++ {
		w.trainRound()
	}
	q, err := NewQueue(w.queueConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	first, err := q.Submit(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := q.Submit(2)
	if err != nil {
		t.Fatal(err)
	}
	if dup != first {
		t.Fatalf("duplicate submit got id %s, want existing %s", dup, first)
	}
	if st := q.Stats(); st.Deduped != 1 || st.Pending != 1 {
		t.Fatalf("stats %+v, want 1 deduped / 1 pending", st)
	}
	// A request not fully covered enqueues normally.
	other, err := q.Submit(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if other == first {
		t.Fatal("partially-overlapping request should get its own ID")
	}
}

// TestQueueAdmission checks the pending bound: with the worker paused,
// maxPending requests no earlier one covers (every pair of the eight
// clients, then triples) fill the queue, and the next is refused.
func TestQueueAdmission(t *testing.T) {
	w := newQueueWorld(t, 8)
	for i := 0; i < 16; i++ {
		w.trainRound()
	}
	q, err := NewQueue(w.queueConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	var sets [][]history.ClientID
	for _, size := range []int{2, 3} {
		var pick func(from int, set []history.ClientID)
		pick = func(from int, set []history.ClientID) {
			if len(set) == size {
				sets = append(sets, slices.Clone(set))
				return
			}
			for _, c := range w.clients[from:] {
				pick(int(c)+1, append(set, c))
			}
		}
		pick(0, nil)
	}
	for i, set := range sets[:maxPending] {
		if _, err := q.Submit(set...); err != nil {
			t.Fatalf("submit %d of %d (%v): %v", i+1, maxPending, set, err)
		}
	}
	if _, err := q.Submit(sets[maxPending]...); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit %d err = %v, want ErrQueueFull", maxPending+1, err)
	}
	// Unknown clients are rejected up front.
	if _, err := q.Submit(77); !errors.Is(err, history.ErrUnknownClient) {
		t.Fatalf("unknown client err = %v, want ErrUnknownClient", err)
	}
}

// TestQueueClose checks pending requests fail with ErrQueueClosed.
func TestQueueClose(t *testing.T) {
	w := newQueueWorld(t, 4)
	for i := 0; i < 8; i++ {
		w.trainRound()
	}
	q, err := NewQueue(w.queueConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	id, err := q.Submit(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := q.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateFailed || !errors.Is(info.Err, ErrQueueClosed) {
		t.Fatalf("after close: state %s err %v, want failed/ErrQueueClosed", info.State, info.Err)
	}
	if _, err := q.Submit(2); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("submit after close err = %v, want ErrQueueClosed", err)
	}
}

// TestQueueOverlapBitIdentical is the acceptance test for the
// copy-on-write overlap: training keeps appending rounds while the
// queue's pass chases the store, and the committed result must be
// bit-identical to a stop-the-world BeginCommit + Commit over the exact
// history the commit saw — the same store object, frozen by the swap.
func TestQueueOverlapBitIdentical(t *testing.T) {
	w := newQueueWorld(t, 6)
	for i := 0; i < 24; i++ {
		w.trainRound()
	}
	q, err := NewQueue(w.queueConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	before := w.store // frozen at commit time: the trainer moves to the rewritten store
	id, err := q.Submit(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Keep training while the pass runs; the commit's store swap is the
	// only synchronisation point.
	stop := make(chan struct{})
	var trainer sync.WaitGroup
	trainer.Add(1)
	go func() {
		defer trainer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				w.trainRound()
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	info := waitDone(t, q, id)
	close(stop)
	trainer.Wait()
	if info.State != StateDone {
		t.Fatalf("state = %s (err %v)", info.State, info.Err)
	}
	overlapped := info.Result
	overlappedBytes := w.commitSnapshot

	// Stop-the-world comparator over the identical final history.
	u, err := New(before, Config{LearningRate: w.lr, Parallelism: 1, RefreshEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	swPass, err := u.BeginCommit(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	sw, swStore, err := swPass.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if overlapped.BacktrackRound != sw.BacktrackRound ||
		overlapped.RecoveredRounds != sw.RecoveredRounds ||
		overlapped.DegenerateFallbacks != sw.DegenerateFallbacks ||
		overlapped.PairRefreshes != sw.PairRefreshes ||
		overlapped.BootstrappedClients != sw.BootstrappedClients {
		t.Fatalf("counters differ: overlapped %+v vs stop-the-world %+v", overlapped, sw)
	}
	for i := range sw.Params {
		if math.Float64bits(overlapped.Params[i]) != math.Float64bits(sw.Params[i]) {
			t.Fatalf("params differ at %d: %v vs %v", i, overlapped.Params[i], sw.Params[i])
		}
	}
	var swBytes bytes.Buffer
	if err := swStore.Save(&swBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(overlappedBytes, swBytes.Bytes()) {
		t.Fatalf("rewritten stores differ: overlapped %d bytes vs stop-the-world %d bytes",
			len(overlappedBytes), swBytes.Len())
	}
}

// TestQueueSecondPassAfterCommit checks a request arriving after a
// commit runs against the rewritten store, and that re-submitting an
// already-forgotten client is rejected as unknown.
func TestQueueSecondPassAfterCommit(t *testing.T) {
	w := newQueueWorld(t, 5)
	for i := 0; i < 12; i++ {
		w.trainRound()
	}
	q, err := NewQueue(w.queueConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	id1, err := q.Submit(3)
	if err != nil {
		t.Fatal(err)
	}
	if info := waitDone(t, q, id1); info.State != StateDone {
		t.Fatalf("first pass: %s (%v)", info.State, info.Err)
	}
	if _, err := q.Submit(3); !errors.Is(err, history.ErrUnknownClient) {
		t.Fatalf("re-forget err = %v, want ErrUnknownClient", err)
	}
	id2, err := q.Submit(2)
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, q, id2)
	if info.State != StateDone {
		t.Fatalf("second pass: %s (%v)", info.State, info.Err)
	}
	if _, err := w.store.MembershipOf(2); err == nil {
		t.Fatal("client 2 still known after second pass")
	}
}
