// Package telemetry is the repo's lightweight metrics and tracing
// layer: named counters, gauges and phase timers (min/mean/max)
// collected in a concurrency-safe Registry, plus a pluggable Observer
// hook that streams round-grained events to a sink (JSON lines, text,
// or user code).
//
// The package exists because the paper's central claims are *cost*
// claims — ~95% gradient-storage reduction from 2-bit directions, and
// recovery cheaper than Retraining with zero client participation —
// and none of that can be argued without measuring where round and
// recovery time actually goes. Every hot path of the system
// (fl.Simulation, fl.RSASimulation, unlearn.Unlearner, history.Store
// and the baselines) emits through this package.
//
// # Disabled by default, ~free when off
//
// A nil *Registry is the valid, disabled default. Every constructor
// method (Counter, Gauge, Timer) on a nil Registry returns a nil
// handle, and every operation on a nil handle is a no-op guarded by a
// single nil check — no locks, no time.Now, no allocation. Components
// therefore cache their handles once at construction:
//
//	type simMetrics struct {
//	    rounds  *telemetry.Counter
//	    compute *telemetry.Timer
//	}
//	m := simMetrics{
//	    rounds:  reg.Counter("fl.rounds"),   // nil when reg is nil
//	    compute: reg.Timer("fl.round.compute"),
//	}
//
// and the hot path stays branch-cheap whether telemetry is on or off:
//
//	span := m.compute.Start() // zero Span when disabled
//	... work ...
//	span.End()
//	m.rounds.Add(1)
//
// BenchmarkSimulationRoundTelemetry in internal/fl demonstrates that
// the disabled path adds under 5% to a training round.
//
// # Handles
//
// Counter is a monotonically increasing int64 (atomic add). Gauge is a
// last-write-wins float64 (atomic bits). Timer accumulates count,
// total, min and max duration via atomics; Timer.Start returns a Span
// *by value* so timing a phase allocates nothing:
//
//	defer t.Start().End() // wrong: End runs immediately — see below
//	span := t.Start(); defer span.End()
//
// All handles are live: reading Counter.Value, Gauge.Value or
// Timer.Stats mid-run is safe and reflects the current totals.
//
// # Observer events
//
// Instrumented components additionally Emit one Event per round —
// scope ("fl", "rsa", "unlearn"), name, round index and a small
// ordered field list mixing scalars and durations. Observers are
// installed with Registry.SetObserver; NewJSONObserver and
// NewTextObserver write one line per event and are safe for
// concurrent emitters. The default (no observer) drops events after a
// single atomic load.
//
// # Reports and profiles
//
// Registry.Snapshot returns every metric sorted by name;
// Snapshot.WriteText renders an aligned report and Snapshot.WriteJSON
// a machine-readable one (durations in nanoseconds, time.Duration's
// native JSON form). StartProfiles starts a CPU profile and, on stop,
// captures a heap profile — the plumbing behind the fuiov commands'
// -profile flag.
//
// Canonical metric names emitted by the instrumented subsystems are
// documented in names.go so that examples, tests and dashboards can
// look up live handles by the same strings the emitters use.
package telemetry
