// Package history implements the RSU-side record keeping the paper's
// unlearning scheme depends on (§IV): for every round the server
// stores the global model parameters and, per participating vehicle,
// the *direction* of the uploaded gradient (2 bits/element via
// internal/sign) together with the aggregation weight. It also tracks
// when each vehicle joined and left federated learning, which drives
// both the backtracking target (round F) and the L-BFGS bootstrap
// window (rounds F−s .. F−1).
//
// The store is built for one writer (the round engine) and many
// concurrent readers (the recovery loop, inspectors): round records
// are immutable once appended, so the read path — ModelInto,
// Direction, Weight, ParticipantsInto — goes through an atomically
// published append-only round index and never takes a lock. Gradient
// compression happens before the write lock is acquired; the critical
// section is just the membership update and the index publication.
// With WithSpill, model snapshots older than a configurable window
// move to an append-only scratch file and are read back by offset, so
// resident memory is O(window·dim) regardless of how many rounds were
// trained (DESIGN.md §11).
package history

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"fuiov/internal/sign"
	"fuiov/internal/telemetry"
)

// ClientID identifies a vehicle in the federation.
type ClientID int

// ErrNoRecord is returned when a requested round or client entry does
// not exist in the store.
var ErrNoRecord = errors.New("history: no such record")

// ErrUnknownClient is returned when a client has never been seen by
// the store. It wraps ErrNoRecord, so errors.Is matches either
// sentinel on membership lookups.
var ErrUnknownClient = fmt.Errorf("%w: unknown client", ErrNoRecord)

// ErrNoHistory is returned by consumers (the unlearner, the recovery
// baselines) that need at least one recorded round to operate.
var ErrNoHistory = errors.New("history: no rounds recorded")

// Membership records a client's participation interval.
type Membership struct {
	// JoinRound is the first round the client participated in.
	JoinRound int
	// LeaveRound is the round after the client's last participation,
	// or -1 while the client is still active.
	LeaveRound int
}

// modelSlot says where a round's model snapshot lives: in RAM while
// ram is non-nil, otherwise in the spill file at byte offset off.
type modelSlot struct {
	ram []float64
	off int64
}

// roundRecord is one round's stored state. Everything but the model
// slot is immutable once the round is published; the slot is swapped
// atomically from RAM to spill-file residency when the round ages out
// of the in-RAM window.
type roundRecord struct {
	model   atomic.Pointer[modelSlot]
	dirs    map[ClientID]*sign.Direction
	weights map[ClientID]float64
}

// roundIndex is the atomically-published round log. RecordRound
// publishes a fresh index value whose recs slice extends the previous
// one by a single immutable record; readers load the pointer and index
// into a snapshot that can never change under them.
type roundIndex struct {
	recs []*roundRecord
}

// Store is the server-side history log. It is safe for concurrent
// use; the round-read path (ModelInto, Direction, Weight,
// ParticipantsInto, Rounds) is lock-free and never blocks on writers.
type Store struct {
	dim   int
	delta float64

	// idx is the published append-only round index (see roundIndex).
	idx atomic.Pointer[roundIndex]

	// met is replaced wholesale by SetTelemetry and loaded once per
	// operation, so the lock-free readers never race a re-attachment.
	met atomic.Pointer[storeMetrics]

	// mu serialises writers (RecordRound, NoteLeave, Load) and guards
	// members, the byte counters and the spill tier's write side.
	mu            sync.RWMutex
	members       map[ClientID]Membership
	fullGradBytes int
	dirBytes      int

	// spill, when non-nil, is the bounded-memory snapshot tier
	// (see WithSpill).
	spill *spillTier
}

// storeMetrics caches telemetry handles (all nil/no-op until
// SetTelemetry is called).
type storeMetrics struct {
	record      *telemetry.Timer
	compress    *telemetry.Timer
	rounds      *telemetry.Counter
	dirBytes    *telemetry.Counter
	modelByte   *telemetry.Counter
	fullBytes   *telemetry.Counter
	compElems   *telemetry.Counter
	saving      *telemetry.Gauge
	spillRounds *telemetry.Counter
	spillBytes  *telemetry.Counter
	spillHits   *telemetry.Counter
	spillMisses *telemetry.Counter
}

// noMetrics is the disabled default every operation falls back to
// before SetTelemetry: all handles nil, every method a no-op.
var noMetrics storeMetrics

// metrics returns the current telemetry handle set.
func (s *Store) metrics() *storeMetrics {
	if m := s.met.Load(); m != nil {
		return m
	}
	return &noMetrics
}

// SetTelemetry attaches a metrics registry: RecordRound then emits
// record/compress timings, byte counters, a live compression-saving
// gauge (1 − direction/full-gradient bytes) and — with spilling
// enabled — spill-round/byte counters and hot-round cache hit/miss
// counters. Pass nil to detach. Safe to call before any recording;
// calling it mid-stream only affects subsequent operations (counters
// count from the attach point, the gauge reflects lifetime totals).
func (s *Store) SetTelemetry(r *telemetry.Registry) {
	s.met.Store(&storeMetrics{
		record:      r.Timer(telemetry.HistoryRecord),
		compress:    r.Timer(telemetry.HistoryCompress),
		rounds:      r.Counter(telemetry.HistoryRounds),
		dirBytes:    r.Counter(telemetry.HistoryDirectionBytes),
		modelByte:   r.Counter(telemetry.HistoryModelBytes),
		fullBytes:   r.Counter(telemetry.HistoryFullEquivBytes),
		compElems:   r.Counter(telemetry.HistoryCompressedElems),
		saving:      r.Gauge(telemetry.HistorySaving),
		spillRounds: r.Counter(telemetry.HistorySpilledRounds),
		spillBytes:  r.Counter(telemetry.HistorySpilledBytes),
		spillHits:   r.Counter(telemetry.HistorySpillHits),
		spillMisses: r.Counter(telemetry.HistorySpillMisses),
	})
}

// NewStore creates a history store for models with dim parameters,
// compressing gradients with direction threshold delta. Options
// configure the bounded-memory snapshot tier (WithSpill); with none,
// every snapshot stays in RAM.
func NewStore(dim int, delta float64, opts ...StoreOption) (*Store, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("history: invalid model dimension %d", dim)
	}
	if err := sign.CheckThreshold(delta); err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	var o storeOptions
	for _, opt := range opts {
		opt(&o)
	}
	s := &Store{dim: dim, delta: delta, members: make(map[ClientID]Membership)}
	sp, err := newSpillTier(dim, o)
	if err != nil {
		return nil, err
	}
	s.spill = sp
	return s, nil
}

// Close releases the spill tier's file handle. It is a no-op without
// spilling and idempotent; after Close, reads of already-spilled
// rounds fail. The spill file is unlinked at creation, so even an
// unclosed store leaks no on-disk state past process exit.
func (s *Store) Close() error {
	if s.spill == nil {
		return nil
	}
	return s.spill.close()
}

// Dim returns the model dimension.
func (s *Store) Dim() int { return s.dim }

// Delta returns the direction threshold.
func (s *Store) Delta() float64 { return s.delta }

// loadRecs returns the current immutable round snapshot.
func (s *Store) loadRecs() []*roundRecord {
	if ix := s.idx.Load(); ix != nil {
		return ix.recs
	}
	return nil
}

// Rounds returns the number of recorded rounds.
func (s *Store) Rounds() int { return len(s.loadRecs()) }

// RecordRound appends round t's state: the global model *before* the
// round's update (the parameters clients trained on), the gradients
// each participant uploaded, and their aggregation weights. Rounds
// must be recorded densely: t must equal Rounds(). It is
// RecordRoundDirs after compressing every gradient to its direction.
//
// Gradient compression runs before the write lock is taken, so
// concurrent readers — including a recovery in flight — are never
// blocked behind the codec; the critical section is the membership
// update, the index publication and (when enabled) the spilling of
// rounds that aged out of the in-RAM window.
func (s *Store) RecordRound(t int, model []float64, grads map[ClientID][]float64, weights map[ClientID]float64) error {
	met := s.metrics()
	recordSpan := met.record.Start()
	defer recordSpan.End()
	if n := s.Rounds(); t != n {
		// Fail fast before paying for compression; the authoritative
		// check re-runs under the write lock.
		return fmt.Errorf("history: round %d recorded out of order (next is %d)", t, n)
	}
	dirs, err := s.compressRound(grads, met)
	if err != nil {
		return err
	}
	return s.recordDirs(t, model, dirs, weights, met)
}

// compressRound packs a round's gradients to their 2-bit directions.
func (s *Store) compressRound(grads map[ClientID][]float64, met *storeMetrics) (map[ClientID]*sign.Direction, error) {
	compressSpan := met.compress.Start()
	defer compressSpan.End()
	dirs := make(map[ClientID]*sign.Direction, len(grads))
	for id, g := range grads {
		if len(g) != s.dim {
			return nil, fmt.Errorf("history: client %d gradient has %d params, store expects %d", id, len(g), s.dim)
		}
		d, err := sign.Compress(g, s.delta)
		if err != nil {
			return nil, fmt.Errorf("history: compress client %d: %w", id, err)
		}
		dirs[id] = d
	}
	return dirs, nil
}

// RecordRoundDirs is RecordRound for callers that already hold
// compressed directions — the round engine, which compresses each
// upload the moment it arrives and need not keep the dense gradient
// for the history's sake. The stored state is identical to
// RecordRound's: the same membership updates, byte accounting and
// spill behaviour apply. Directions and the model must match the
// store's dimension; missing weights default to 1. The store retains
// the passed directions (they are immutable once recorded), so callers
// must not mutate them.
func (s *Store) RecordRoundDirs(t int, model []float64, dirs map[ClientID]*sign.Direction, weights map[ClientID]float64) error {
	met := s.metrics()
	recordSpan := met.record.Start()
	defer recordSpan.End()
	return s.recordDirs(t, model, dirs, weights, met)
}

// recordDirs builds round t's record from packed directions and
// appends it under the write lock: membership updates, byte
// accounting, index publication and spilling.
func (s *Store) recordDirs(t int, model []float64, dirs map[ClientID]*sign.Direction, weights map[ClientID]float64, met *storeMetrics) error {
	if len(model) != s.dim {
		return fmt.Errorf("history: model has %d params, store expects %d", len(model), s.dim)
	}
	rec := &roundRecord{
		dirs:    make(map[ClientID]*sign.Direction, len(dirs)),
		weights: make(map[ClientID]float64, len(dirs)),
	}
	rec.model.Store(&modelSlot{ram: append([]float64(nil), model...)})
	var dirBytes int
	for id, d := range dirs {
		if d == nil {
			return fmt.Errorf("history: client %d has nil direction", id)
		}
		if d.Len() != s.dim {
			return fmt.Errorf("history: client %d direction has %d params, store expects %d", id, d.Len(), s.dim)
		}
		rec.dirs[id] = d
		w, ok := weights[id]
		if !ok {
			w = 1
		}
		rec.weights[id] = w
		dirBytes += d.StorageBytes()
	}
	// Every recorded element passed through the codec, here or upstream
	// at arrival time.
	met.compElems.Add(int64(len(dirs) * s.dim))
	fullBytes := len(dirs) * 8 * s.dim

	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.loadRecs()
	if t != len(recs) {
		return fmt.Errorf("history: round %d recorded out of order (next is %d)", t, len(recs))
	}
	for id := range rec.dirs {
		if m, ok := s.members[id]; !ok || m.LeaveRound >= 0 {
			// First sighting, or a rejoin: treat the new interval as
			// authoritative for future unlearning requests.
			s.members[id] = Membership{JoinRound: t, LeaveRound: -1}
		}
	}
	s.dirBytes += dirBytes
	s.fullGradBytes += fullBytes
	recs = append(recs, rec)
	s.idx.Store(&roundIndex{recs: recs})
	met.rounds.Inc()
	met.dirBytes.Add(int64(dirBytes))
	met.fullBytes.Add(int64(fullBytes))
	met.modelByte.Add(int64(8 * s.dim))
	if s.fullGradBytes > 0 {
		met.saving.Set(1 - float64(s.dirBytes)/float64(s.fullGradBytes))
	}
	// The round is committed at this point; a spill I/O failure below
	// reports the storage problem without un-recording it.
	return s.maybeSpill(recs, met)
}

// Model returns a copy of the global model recorded at round t.
func (s *Store) Model(t int) ([]float64, error) {
	out := make([]float64, s.dim)
	if err := s.ModelInto(t, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ModelInto copies the global model recorded at round t into dst
// (length Dim), avoiding Model's allocation in recovery hot loops. It
// never blocks on a concurrent RecordRound; spilled rounds are read
// back from the snapshot file through a small hot-round cache.
func (s *Store) ModelInto(t int, dst []float64) error {
	if len(dst) != s.dim {
		return fmt.Errorf("history: ModelInto dst has %d params, store expects %d", len(dst), s.dim)
	}
	recs := s.loadRecs()
	if t < 0 || t >= len(recs) {
		return fmt.Errorf("%w: round %d", ErrNoRecord, t)
	}
	slot := recs[t].model.Load()
	if slot.ram != nil {
		copy(dst, slot.ram)
		return nil
	}
	return s.spill.readInto(dst, t, slot.off, s.metrics())
}

// Direction returns the stored gradient direction of a client at round
// t, or ErrNoRecord when the client did not participate.
func (s *Store) Direction(t int, id ClientID) (*sign.Direction, error) {
	recs := s.loadRecs()
	if t < 0 || t >= len(recs) {
		return nil, fmt.Errorf("%w: round %d", ErrNoRecord, t)
	}
	d, ok := recs[t].dirs[id]
	if !ok {
		return nil, fmt.Errorf("%w: client %d at round %d", ErrNoRecord, id, t)
	}
	return d, nil
}

// Weight returns the aggregation weight of a client at round t.
func (s *Store) Weight(t int, id ClientID) (float64, error) {
	recs := s.loadRecs()
	if t < 0 || t >= len(recs) {
		return 0, fmt.Errorf("%w: round %d", ErrNoRecord, t)
	}
	w, ok := recs[t].weights[id]
	if !ok {
		return 0, fmt.Errorf("%w: client %d at round %d", ErrNoRecord, id, t)
	}
	return w, nil
}

// Participants returns the sorted client IDs that uploaded gradients
// at round t.
func (s *Store) Participants(t int) ([]ClientID, error) {
	return s.ParticipantsInto(t, nil)
}

// ParticipantsInto is Participants writing into buf's backing array
// when its capacity suffices, for callers that query round after round
// (the recovery loop) and want to avoid a per-round allocation. The
// returned slice is sorted and aliases buf when it fit.
func (s *Store) ParticipantsInto(t int, buf []ClientID) ([]ClientID, error) {
	recs := s.loadRecs()
	if t < 0 || t >= len(recs) {
		return nil, fmt.Errorf("%w: round %d", ErrNoRecord, t)
	}
	out := buf[:0]
	for id := range recs[t].dirs {
		out = append(out, id)
	}
	slices.Sort(out)
	return out, nil
}

// NoteLeave marks a client as having left FL effective round t.
func (s *Store) NoteLeave(id ClientID, t int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.members[id]; ok && m.LeaveRound < 0 {
		m.LeaveRound = t
		s.members[id] = m
	}
}

// MembershipOf returns the recorded membership interval of a client.
func (s *Store) MembershipOf(id ClientID) (Membership, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.members[id]
	if !ok {
		return Membership{}, fmt.Errorf("%w %d", ErrUnknownClient, id)
	}
	return m, nil
}

// JoinRound returns the first round the client participated in — the
// backtracking target F of the unlearning scheme.
func (s *Store) JoinRound(id ClientID) (int, error) {
	m, err := s.MembershipOf(id)
	if err != nil {
		return 0, err
	}
	return m.JoinRound, nil
}

// Clients returns the sorted IDs of every client ever seen.
func (s *Store) Clients() []ClientID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ClientID, 0, len(s.members))
	for id := range s.members {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// StorageReport summarises the store's footprint.
type StorageReport struct {
	// DirectionBytes is the actual bytes used for packed directions.
	DirectionBytes int
	// ModelBytes is the total bytes of model snapshots (8 per param),
	// resident plus spilled.
	ModelBytes int
	// ModelBytesResident is the snapshot bytes currently held in RAM —
	// at most window·dim·8 when spilling is enabled.
	ModelBytesResident int
	// ModelBytesSpilled is the snapshot bytes moved to the spill file.
	ModelBytesSpilled int
	// FullGradientBytes is the hypothetical cost had full float64
	// gradients been stored instead of directions.
	FullGradientBytes int
	// GradientSavings is 1 - DirectionBytes/FullGradientBytes.
	GradientSavings float64
}

// Storage returns the current storage accounting.
func (s *Store) Storage() StorageReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rounds := len(s.loadRecs())
	spilled := 0
	if s.spill != nil {
		spilled = s.spill.spilled
	}
	r := StorageReport{
		DirectionBytes:     s.dirBytes,
		ModelBytes:         rounds * s.dim * 8,
		ModelBytesResident: (rounds - spilled) * s.dim * 8,
		ModelBytesSpilled:  spilled * s.dim * 8,
		FullGradientBytes:  s.fullGradBytes,
	}
	if r.FullGradientBytes > 0 {
		r.GradientSavings = 1 - float64(r.DirectionBytes)/float64(r.FullGradientBytes)
	}
	return r
}
