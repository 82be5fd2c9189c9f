// Package telemetry is the repo's lightweight metrics and tracing
// layer: named counters, gauges and phase timers (min/mean/max)
// collected in a concurrency-safe Registry, plus a log/slog logger slot
// through which instrumented components write one record per round.
//
// The package exists because the paper's central claims are *cost*
// claims — ~95% gradient-storage reduction from 2-bit directions, and
// recovery cheaper than Retraining with zero client participation —
// and none of that can be argued without measuring where round and
// recovery time actually goes. Every hot path of the system
// (fl.Simulation, unlearn.Unlearner, history.Store and the
// strategies) emits through this package.
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
//	defer t.Start().End() // Start runs now, End when the function returns
//	span := t.Start(); defer span.End() // the same, with the span named
//
// All handles are live: reading Counter.Value, Gauge.Value or
// Timer.Stats mid-run is safe and reflects the current totals.
//
// # Round events
//
// Instrumented components additionally write one log/slog record per
// round to the logger installed with Registry.SetLogger. The message
// names the event ("round" from the fl engine, "recover_round" from
// the unlearner); the attributes are scope ("fl", "unlearn"), the
// round index, then counts as ints and phase
// times as slog.Duration. Emitters guard on Registry.Logger, so with no
// logger installed a round costs a single atomic load and no attribute
// is built. The logger's handler picks the format — the fuiov
// commands' -metrics json|text flag installs slog.NewJSONHandler or
// slog.NewTextHandler on stderr.
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
