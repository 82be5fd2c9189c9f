package fl

import (
	"fmt"
	"math"
	"sync"
	"time"

	"fuiov/internal/history"
	"fuiov/internal/sign"
	"fuiov/internal/telemetry"
	"fuiov/internal/tensor"
)

// RoundStream is one open round of the engine: uploads enter through
// Add (or AddDirection, when they arrive already packed) as they are
// computed or arrive, and SubmitRoundStream commits them. Every round
// goes through one — the in-process loop (RunRoundContext), the
// map-shaped SubmitRound and the networked coordinator differ only in
// where their uploads come from. Add hands each upload to the round's
// StreamAggregator: ShardedFedAvg under Config.Streaming, which folds
// it and keeps nothing, otherwise the buffering aggregator, which keeps
// the gradient until FedAvg runs at commit. Either way the upload's
// 2-bit direction is in hand on arrival when a history store is
// configured — compressed here, or the very payload a sign upload
// carried — so the commit itself never touches the codec. Obtain one
// per round from NewRoundStream; Add and AddDirection are safe for
// concurrent use. Under Streaming the committed bits are deterministic
// given each shard's arrival order; without it they do not depend on
// arrival order at all (DESIGN.md §13).
type RoundStream struct {
	sim *Simulation
	t   int

	mu      sync.Mutex
	resp    *history.Bitmap
	dirs    map[history.ClientID]*sign.Direction
	weights map[history.ClientID]float64
	closed  bool

	// The in-process loop's timings. RunRoundContext sets them before
	// it commits, and the round event then carries compute and total;
	// an externally driven round has neither.
	inProcess  bool
	roundSpan  telemetry.Span
	computeDur time.Duration
}

// NewRoundStream opens the current round. Only one round may be open
// at a time: committing (SubmitRoundStream) or Abort closes it.
func (s *Simulation) NewRoundStream() (*RoundStream, error) {
	if s.liveStream != nil && !s.liveStream.closed {
		return nil, fmt.Errorf("fl: round %d stream already open", s.liveStream.t)
	}
	s.stream.Reset()
	s.respBits.Reset()
	rs := &RoundStream{sim: s, t: s.round, resp: s.respBits}
	if s.cfg.Store != nil {
		rs.dirs = make(map[history.ClientID]*sign.Direction)
		rs.weights = make(map[history.ClientID]float64)
	}
	s.liveStream = rs
	return rs, nil
}

// Folded returns the number of uploads accepted so far.
func (rs *RoundStream) Folded() int { return rs.sim.stream.Folded() }

// Add validates one upload and hands it to the round's aggregator:
// unknown clients fail with ErrUnknownClient, repeats with
// ErrDuplicateUpload (a responder bitmap, one bit per client), and a
// weight that is NaN, infinite or negative is refused — one such
// weight would otherwise turn the whole aggregate to NaN or flip its
// sign. Under Config.Streaming grad is not retained and the caller may
// reuse it; otherwise the round keeps it until it commits or aborts.
func (rs *RoundStream) Add(id history.ClientID, grad []float64, weight float64) error {
	if err := rs.admit(id, len(grad), weight); err != nil {
		return err
	}
	return rs.take(id, grad, nil, 0, weight)
}

// AddDirection is Add for an upload that travelled as its 2-bit
// direction and one magnitude — the gradient scale·d, never built here
// unless someone needs it dense. Validation is Add's, plus a scale that
// must be finite; the committed model and the recorded history are
// bit-identical to Add(id, d.Scaled(scale), weight). Two things differ.
// The round's history direction is d itself whenever scale > δ: every
// non-zero element of scale·d then clears the store's threshold with
// its sign intact and every zero stays zero, so compressing the
// expansion would only re-derive d. (Any other scale expands and goes
// down Add's path.) And an aggregator that can fold the packed form
// (ShardedFedAvg) is handed it; the buffering one, which keeps the
// dense cohort for full-gradient Recorders, gets one expansion. The
// round keeps a reference to d: the caller must not modify it
// afterwards.
func (rs *RoundStream) AddDirection(id history.ClientID, d *sign.Direction, scale, weight float64) error {
	if d == nil {
		return fmt.Errorf("fl: round %d: client %d uploaded a nil direction", rs.t, id)
	}
	if math.IsNaN(scale) || math.IsInf(scale, 0) {
		return fmt.Errorf("fl: round %d: client %d sign scale %v is not finite", rs.t, id, scale)
	}
	if err := rs.admit(id, d.Len(), weight); err != nil {
		return err
	}
	if rs.dirs != nil && !(scale > rs.sim.cfg.Store.Delta()) {
		return rs.take(id, d.Scaled(scale), nil, 0, weight)
	}
	return rs.take(id, nil, d, scale, weight)
}

// directionFolder is the StreamAggregator extension AddDirection looks
// for: the aggregator folds weight·scale·d off the packed form, with
// the bits Add(id, d.Scaled(scale), weight) would leave.
type directionFolder interface {
	AddDirection(id history.ClientID, d *sign.Direction, scale, weight float64) error
}

// admit is the prologue every upload passes, whatever form it arrived
// in: a known client, the model's dimension, a usable weight, an open
// round, and the client's first upload of it (its responder bit).
func (rs *RoundStream) admit(id history.ClientID, n int, weight float64) error {
	s := rs.sim
	if !s.known[id] {
		return fmt.Errorf("fl: round %d: upload from client %d: %w", rs.t, id, ErrUnknownClient)
	}
	if n != len(s.params) {
		return fmt.Errorf("fl: round %d: client %d upload dimension %d, want %d", rs.t, id, n, len(s.params))
	}
	if math.IsNaN(weight) || math.IsInf(weight, 0) || weight < 0 {
		return fmt.Errorf("fl: round %d: client %d weight %v is not finite and non-negative", rs.t, id, weight)
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.closed {
		return fmt.Errorf("fl: round %d stream is closed", rs.t)
	}
	if !rs.resp.Set(int(id)) {
		return fmt.Errorf("fl: round %d client %d: %w", rs.t, id, ErrDuplicateUpload)
	}
	return nil
}

// take hands an admitted upload to the round's aggregator and keeps its
// direction for the commit. The upload is either grad (d nil), whose
// direction is derived here when a store wants one, or the packed
// (d, scale), whose direction is d.
func (rs *RoundStream) take(id history.ClientID, grad []float64, d *sign.Direction, scale, weight float64) error {
	s := rs.sim
	packed := d != nil
	// Compress before the aggregator sees the upload so a codec failure
	// leaves it untouched, and both outside rs.mu so concurrent uploads
	// proceed in parallel (ShardedFedAvg locks per shard).
	if !packed && rs.dirs != nil {
		span := s.met.compress.Start()
		var err error
		d, err = sign.Compress(grad, s.cfg.Store.Delta())
		span.End()
		if err != nil {
			return fmt.Errorf("fl: round %d compress client %d: %w", rs.t, id, err)
		}
	}
	span := s.met.stream.fold.Start()
	var err error
	if folder, ok := s.stream.(directionFolder); ok && packed {
		err = folder.AddDirection(id, d, scale, weight)
	} else {
		if packed {
			grad = d.Scaled(scale)
		}
		err = s.stream.Add(id, grad, weight)
	}
	span.End()
	if err != nil {
		return fmt.Errorf("fl: round %d: %w", rs.t, err)
	}
	s.met.stream.folds.Inc()
	if rs.dirs != nil {
		rs.mu.Lock()
		rs.dirs[id] = d
		rs.weights[id] = weight
		rs.mu.Unlock()
	}
	return nil
}

// Abort closes the stream and discards its uploads without committing
// — the path of a round that was cancelled, or of a collection window
// torn down with its coordinator.
func (rs *RoundStream) Abort() {
	rs.mu.Lock()
	closed := rs.closed
	rs.closed = true
	rs.mu.Unlock()
	if !closed {
		rs.sim.stream.Reset()
	}
}

// SubmitRoundStream commits a collected round — the engine's only
// commit. scheduled is the number of clients that were expected this
// round (the quorum denominator — absentees are scheduled − Folded(),
// tracked by count, never by map). In order:
//
//   - quorum: with a FaultPolicy, at least QuorumCount(scheduled)
//     uploads are required, otherwise ErrQuorumNotReached;
//   - resolve: the aggregator reduces the round's uploads;
//   - record: the store receives the packed directions
//     (Store.RecordRoundDirs), full-gradient Recorders the buffered
//     cohort;
//   - eq. 2, the round clock, one round event.
//
// Resolve precedes record because it is the step an upload can still
// fail — validation cannot see that every weight of a round is zero —
// and a round whose aggregate does not exist must not enter the
// history: a store one round ahead of the clock rejects every later
// round as out of order. A failed commit therefore leaves store,
// recorders, model and clock untouched. The stream is closed and its
// uploads discarded whether or not the commit succeeds. A round
// nothing was added to records an empty history entry and advances the
// clock with the model unchanged.
func (s *Simulation) SubmitRoundStream(rs *RoundStream, scheduled int) error {
	if rs == nil || rs.sim != s {
		return fmt.Errorf("fl: foreign round stream")
	}
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		return fmt.Errorf("fl: round %d stream is closed", rs.t)
	}
	rs.closed = true
	rs.mu.Unlock()
	defer s.stream.Reset()
	t := s.round
	if rs.t != t {
		return fmt.Errorf("fl: stream for round %d submitted at round %d", rs.t, t)
	}
	folded := s.stream.Folded()
	if scheduled < folded {
		return fmt.Errorf("fl: round %d: %d uploads exceed %d scheduled clients", t, folded, scheduled)
	}
	absent := scheduled - folded
	if need := s.cfg.FaultPolicy.QuorumCount(scheduled); folded < need {
		s.met.faults.quorumShortfalls.Inc()
		return fmt.Errorf("fl: round %d: %w: %d of %d scheduled clients responded, quorum %d",
			t, ErrQuorumNotReached, folded, scheduled, need)
	}

	var aggDur time.Duration
	if folded > 0 {
		aggSpan := s.met.aggregate.Start()
		err := s.stream.Resolve(s.aggOut)
		aggDur = aggSpan.End()
		if err != nil {
			return fmt.Errorf("fl: round %d: %w", t, err)
		}
		s.met.stream.resolve.Observe(aggDur)
	}

	recordSpan := s.met.record.Start()
	if s.cfg.Store != nil {
		if err := s.cfg.Store.RecordRoundDirs(t, s.params, rs.dirs, rs.weights); err != nil {
			return fmt.Errorf("fl: record round %d: %w", t, err)
		}
	}
	for i, rec := range s.cfg.Recorders {
		// Recorders exist only beside the buffering aggregator
		// (NewSimulation refuses them under Streaming), which still
		// holds the cohort.
		if err := rec.RecordRound(t, s.params, s.buffer.grads, s.buffer.weights); err != nil {
			return fmt.Errorf("fl: recorder %d round %d: %w", i, t, err)
		}
	}
	recordDur := recordSpan.End()

	if folded > 0 {
		tensor.AxpyInPlace(s.params, -s.cfg.LearningRate, s.aggOut)
		s.met.participants.Add(int64(folded))
	}
	s.round++
	s.met.rounds.Inc()
	if absent > 0 && s.cfg.FaultPolicy != nil {
		s.met.faults.absentees.Add(int64(absent))
		s.met.stream.absentees.Add(int64(absent))
		s.met.faults.degradedRounds.Inc()
	}
	total := rs.roundSpan.End()
	if s.cfg.Telemetry.Observing() {
		fields := []telemetry.Field{
			telemetry.F("participants", float64(scheduled)),
			telemetry.F("responders", float64(folded)),
			telemetry.F("absent", float64(absent)),
			telemetry.D("record", recordDur),
			telemetry.D("aggregate", aggDur),
		}
		if s.cfg.Streaming {
			fields = append(fields, telemetry.F("shards", float64(s.cfg.StreamShards)))
		}
		if rs.inProcess {
			fields = append(fields, telemetry.D("compute", rs.computeDur), telemetry.D("total", total))
		}
		s.cfg.Telemetry.Emit(telemetry.Event{Scope: "fl", Name: "round", Round: t, Fields: fields})
	}
	return nil
}
