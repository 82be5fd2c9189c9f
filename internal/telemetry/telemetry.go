package telemetry

import (
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a named collection of counters, gauges and timers plus
// an optional slog.Logger for round-grained events. The zero value is
// not usable; call New. A nil *Registry is the valid disabled default:
// every method is nil-safe and hands out nil (no-op) handles.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	logger   atomic.Pointer[slog.Logger]
}

// New creates an empty, enabled registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
	}
}

// Counter returns the live counter registered under name, creating it
// on first use. On a nil registry it returns nil, whose every method
// is a no-op.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the live gauge registered under name, creating it on
// first use. Nil-safe like Counter.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the live phase timer registered under name, creating
// it on first use. Nil-safe like Counter.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = newTimer()
		r.timers[name] = t
	}
	return t
}

// SetLogger installs the logger that receives round events (nil
// removes it). Safe to call concurrently with Logger; no-op on a nil
// registry.
func (r *Registry) SetLogger(l *slog.Logger) {
	if r == nil {
		return
	}
	r.logger.Store(l)
}

// Logger returns the installed round-event logger, or nil on a nil
// registry or with none installed. Emitters guard on it so the
// disabled path is one atomic load and no attribute construction:
//
//	if lg := reg.Logger(); lg != nil {
//	    lg.LogAttrs(ctx, slog.LevelInfo, "round", …)
//	}
func (r *Registry) Logger() *slog.Logger {
	if r == nil {
		return nil
	}
	return r.logger.Load()
}

// Counter is a monotonically increasing event count. All methods are
// safe for concurrent use and no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float64 measurement. All methods are
// safe for concurrent use and no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set overwrites the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Timer accumulates phase durations: count, total, min and max, all
// via atomics, so concurrent phases from many goroutines are safe.
type Timer struct {
	count atomic.Int64
	sum   atomic.Int64 // nanoseconds
	min   atomic.Int64 // nanoseconds; MaxInt64 while empty
	max   atomic.Int64 // nanoseconds
}

func newTimer() *Timer {
	t := &Timer{}
	t.min.Store(math.MaxInt64)
	return t
}

// Observe records one phase duration. No-op on a nil timer.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	ns := int64(d)
	t.count.Add(1)
	t.sum.Add(ns)
	for {
		cur := t.min.Load()
		if ns >= cur || t.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := t.max.Load()
		if ns <= cur || t.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Start opens a timing span. On a nil timer it returns the zero Span,
// whose End is a no-op — crucially without ever reading the clock.
// Span is a value type: starting and ending a span allocates nothing.
func (t *Timer) Start() Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, start: time.Now()}
}

// Span is one in-flight phase measurement produced by Timer.Start.
type Span struct {
	t     *Timer
	start time.Time
}

// End closes the span, records the elapsed duration in its timer and
// returns it. A zero Span (from a nil timer) returns 0.
func (s Span) End() time.Duration {
	if s.t == nil {
		return 0
	}
	d := time.Since(s.start)
	s.t.Observe(d)
	return d
}

// TimerStats is a point-in-time summary of a Timer.
type TimerStats struct {
	Count int64
	Total time.Duration
	Min   time.Duration
	Mean  time.Duration
	Max   time.Duration
}

// Stats summarises the timer. A nil or empty timer returns the zero
// TimerStats (Min is 0, not MaxInt64).
func (t *Timer) Stats() TimerStats {
	if t == nil {
		return TimerStats{}
	}
	n := t.count.Load()
	if n == 0 {
		return TimerStats{}
	}
	sum := t.sum.Load()
	return TimerStats{
		Count: n,
		Total: time.Duration(sum),
		Min:   time.Duration(t.min.Load()),
		Mean:  time.Duration(sum / n),
		Max:   time.Duration(t.max.Load()),
	}
}
