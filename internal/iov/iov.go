// Package iov simulates the Internet-of-Vehicles connectivity layer
// that makes federated unlearning necessary in the first place:
// vehicles move along a highway segment, an RSU covers a limited
// radius, and vehicles participate in a federated round only while
// connected. The resulting connectivity traces drive the fl.Schedule
// of a simulation, producing the dynamic join/leave/dropout behaviour
// of §I–II of the paper.
package iov

import (
	"fmt"
	"time"

	"fuiov/internal/faults"
	"fuiov/internal/history"
	"fuiov/internal/rng"
)

// Vehicle is a moving client.
type Vehicle struct {
	ID history.ClientID
	// Pos is the position along the highway in meters.
	Pos float64
	// Speed is in meters per second; negative drives backwards.
	Speed float64
}

// RSU is a road-side unit with a coverage radius. It is the FL server;
// vehicles in coverage can exchange model updates.
type RSU struct {
	Pos    float64
	Radius float64
}

// Distance returns the wrap-aware distance in meters between a highway
// position and the RSU on a circular segment of given length.
func (r RSU) Distance(pos, segmentLength float64) float64 {
	d := pos - r.Pos
	if d < 0 {
		d = -d
	}
	if wrap := segmentLength - d; wrap < d {
		d = wrap
	}
	return d
}

// Config describes a highway scenario.
type Config struct {
	// SegmentLength is the circular highway length in meters.
	SegmentLength float64
	// RSU is the serving road-side unit.
	RSU RSU
	// NumVehicles is the fleet size.
	NumVehicles int
	// MinSpeed and MaxSpeed bound the per-vehicle constant speed (m/s).
	MinSpeed, MaxSpeed float64
	// RoundDuration is the wall-clock seconds per federated round.
	RoundDuration float64
	// DropoutProb is the per-round probability that a connected
	// vehicle fails to participate anyway (radio loss, hardware
	// fault) — the paper's "dropout" case.
	DropoutProb float64
	// OpenRoad makes the segment non-circular: vehicles that drive
	// past either end leave for good, producing permanent dropouts
	// (the erasure scenario of §I). When false the segment is a ring
	// and vehicles repeatedly re-enter coverage.
	OpenRoad bool
	// Seed drives placement, speeds and dropout draws.
	Seed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SegmentLength <= 0 {
		return fmt.Errorf("iov: segment length %v", c.SegmentLength)
	}
	if c.NumVehicles <= 0 {
		return fmt.Errorf("iov: vehicle count %d", c.NumVehicles)
	}
	if c.RSU.Radius <= 0 {
		return fmt.Errorf("iov: RSU radius %v", c.RSU.Radius)
	}
	if c.MinSpeed > c.MaxSpeed {
		return fmt.Errorf("iov: speed range [%v, %v]", c.MinSpeed, c.MaxSpeed)
	}
	if c.RoundDuration <= 0 {
		return fmt.Errorf("iov: round duration %v", c.RoundDuration)
	}
	if c.DropoutProb < 0 || c.DropoutProb > 1 {
		return fmt.Errorf("iov: dropout probability %v", c.DropoutProb)
	}
	return nil
}

// Trace is a per-round participation record for every vehicle. It
// implements fl.Schedule semantics via Participates.
type Trace struct {
	rounds   int
	vehicles []Vehicle // initial states
	part     map[history.ClientID][]bool
	// dist records each vehicle's wrap-aware distance to the RSU in
	// meters at every round; -1 marks a vehicle that has left an open
	// road for good.
	dist map[history.ClientID][]float64
}

// Simulate rolls the scenario forward for the given number of rounds
// and returns the connectivity trace.
func Simulate(cfg Config, rounds int) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rounds <= 0 {
		return nil, fmt.Errorf("iov: rounds %d", rounds)
	}
	r := rng.New(cfg.Seed)
	placement := r.Split(1)
	drop := r.Split(2)

	vehicles := make([]Vehicle, cfg.NumVehicles)
	for i := range vehicles {
		vehicles[i] = Vehicle{
			ID:    history.ClientID(i),
			Pos:   placement.Uniform(0, cfg.SegmentLength),
			Speed: placement.Uniform(cfg.MinSpeed, cfg.MaxSpeed),
		}
	}
	tr := &Trace{
		rounds:   rounds,
		vehicles: append([]Vehicle(nil), vehicles...),
		part:     make(map[history.ClientID][]bool, cfg.NumVehicles),
		dist:     make(map[history.ClientID][]float64, cfg.NumVehicles),
	}
	for _, v := range vehicles {
		tr.part[v.ID] = make([]bool, rounds)
		tr.dist[v.ID] = make([]float64, rounds)
	}
	for t := 0; t < rounds; t++ {
		for i := range vehicles {
			v := &vehicles[i]
			onRoad := v.Pos >= 0 && v.Pos < cfg.SegmentLength
			d := -1.0
			if onRoad {
				d = cfg.RSU.Distance(v.Pos, cfg.SegmentLength)
			}
			tr.dist[v.ID][t] = d
			connected := onRoad && d <= cfg.RSU.Radius
			if connected && cfg.DropoutProb > 0 &&
				drop.Split(uint64(v.ID), uint64(t)).Bernoulli(cfg.DropoutProb) {
				connected = false
			}
			tr.part[v.ID][t] = connected
			// Advance; on a ring the position wraps, on an open road a
			// vehicle that exits the segment never returns.
			v.Pos += v.Speed * cfg.RoundDuration
			if !cfg.OpenRoad {
				for v.Pos >= cfg.SegmentLength {
					v.Pos -= cfg.SegmentLength
				}
				for v.Pos < 0 {
					v.Pos += cfg.SegmentLength
				}
			}
		}
	}
	return tr, nil
}

// Rounds returns the trace horizon.
func (tr *Trace) Rounds() int { return tr.rounds }

// Participates reports connectivity of a vehicle at round t, matching
// the fl.Schedule interface.
func (tr *Trace) Participates(id history.ClientID, t int) bool {
	p, ok := tr.part[id]
	if !ok || t < 0 || t >= len(p) {
		return false
	}
	return p[t]
}

// LastSeen returns the last connected round of a vehicle, or -1.
func (tr *Trace) LastSeen(id history.ClientID) int {
	p := tr.part[id]
	for t := len(p) - 1; t >= 0; t-- {
		if p[t] {
			return t
		}
	}
	return -1
}

// Dropouts returns the IDs of vehicles that were connected at some
// point but are absent for every round in [after, Rounds) — the
// "dropout vehicles" whose influence the server may want to erase.
func (tr *Trace) Dropouts(after int) []history.ClientID {
	var out []history.ClientID
	for _, v := range tr.vehicles {
		last := tr.LastSeen(v.ID)
		if last >= 0 && last < after {
			out = append(out, v.ID)
		}
	}
	return out
}

// DistanceToRSU returns a vehicle's wrap-aware distance to the RSU in
// meters at round t, or -1 when the vehicle is off the road (or the
// vehicle/round is unknown).
func (tr *Trace) DistanceToRSU(id history.ClientID, t int) float64 {
	d, ok := tr.dist[id]
	if !ok || t < 0 || t >= len(d) {
		return -1
	}
	return d[t]
}

// Faults derives a fault injector from the trace's coverage geometry,
// tying the round engine's fault model to the IoV scenario instead of
// abstract probabilities: a vehicle outside RSU coverage at round t
// crashes (no response on any attempt), while a covered vehicle answers
// with latency that grows linearly with its distance from the RSU,
//
//	delay = base + perKm × distance/1000,
//
// so vehicles near the coverage edge become stragglers that a
// fl.FaultPolicy deadline cuts off. The injector is deterministic — a
// pure function of the trace — and independent of the attempt number
// (re-trying a vehicle that drove out of range cannot help within a
// round, matching radio reality).
func (tr *Trace) Faults(base, perKm time.Duration) faults.Injector {
	return faults.Func(func(id history.ClientID, round, _ int) faults.Outcome {
		if !tr.Participates(id, round) {
			return faults.Outcome{Crash: true}
		}
		d := tr.DistanceToRSU(id, round)
		if d < 0 {
			return faults.Outcome{Crash: true}
		}
		return faults.Outcome{Delay: base + time.Duration(d/1000*float64(perKm))}
	})
}

// ParticipationRate returns the fraction of vehicle-rounds connected —
// a sanity statistic for scenario tuning.
func (tr *Trace) ParticipationRate() float64 {
	if tr.rounds == 0 || len(tr.part) == 0 {
		return 0
	}
	var on, total int
	for _, p := range tr.part {
		for _, v := range p {
			total++
			if v {
				on++
			}
		}
	}
	return float64(on) / float64(total)
}
