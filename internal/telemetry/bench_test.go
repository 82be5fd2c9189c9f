package telemetry

import (
	"context"
	"log/slog"
	"testing"
	"time"
)

// The disabled (nil-handle) path must cost ~nothing: a single nil
// check per operation, no clock reads, no allocation.

func BenchmarkCounterAddDisabled(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddEnabled(b *testing.B) {
	c := New().Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	var t *Timer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Start().End()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	t := New().Timer("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Start().End()
	}
}

func BenchmarkTimerObserveEnabled(b *testing.B) {
	t := New().Timer("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Observe(time.Duration(i))
	}
}

func BenchmarkLoggerUnset(b *testing.B) {
	r := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if lg := r.Logger(); lg != nil {
			lg.LogAttrs(context.Background(), slog.LevelInfo, "round")
		}
	}
}

// TestDisabledPathAllocatesNothing pins the zero-cost claim the round
// benchmark demonstrates: the nil-registry path performs no
// allocation whatsoever, so instrumented call sites are free when
// telemetry is off regardless of timer noise on the host.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	var (
		r     *Registry
		unset = New()
		c     *Counter
		g     *Gauge
		tm    *Timer
	)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		c.Inc()
		g.Set(3.14)
		tm.Observe(time.Microsecond)
		tm.Start().End()
		r.Counter("x").Add(1)
		r.Gauge("y").Set(1)
		r.Timer("z").Start().End()
		for _, reg := range [...]*Registry{r, unset} {
			if lg := reg.Logger(); lg != nil {
				lg.LogAttrs(context.Background(), slog.LevelInfo, "round", slog.Int("round", 1))
			}
		}
	})
	if allocs != 0 {
		t.Errorf("disabled telemetry path allocated %.1f times per op, want 0", allocs)
	}
}
