package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("a")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("a") != c {
		t.Fatal("Counter not idempotent per name")
	}
	g := r.Gauge("b")
	g.Set(0.97)
	if got := g.Value(); got != 0.97 {
		t.Fatalf("gauge = %v, want 0.97", got)
	}
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("gauge = %v, want -1 (last write wins)", got)
	}
}

func TestTimerStats(t *testing.T) {
	r := New()
	tm := r.Timer("phase")
	tm.Observe(10 * time.Millisecond)
	tm.Observe(20 * time.Millisecond)
	tm.Observe(60 * time.Millisecond)
	st := tm.Stats()
	if st.Count != 3 {
		t.Fatalf("count = %d, want 3", st.Count)
	}
	if st.Min != 10*time.Millisecond || st.Max != 60*time.Millisecond {
		t.Fatalf("min/max = %v/%v, want 10ms/60ms", st.Min, st.Max)
	}
	if st.Mean != 30*time.Millisecond {
		t.Fatalf("mean = %v, want 30ms", st.Mean)
	}
	if st.Total != 90*time.Millisecond {
		t.Fatalf("total = %v, want 90ms", st.Total)
	}
}

func TestTimerSpan(t *testing.T) {
	r := New()
	tm := r.Timer("span")
	sp := tm.Start()
	time.Sleep(time.Millisecond)
	if d := sp.End(); d <= 0 {
		t.Fatalf("span duration = %v, want > 0", d)
	}
	if st := tm.Stats(); st.Count != 1 || st.Total <= 0 {
		t.Fatalf("stats after span: %+v", st)
	}
}

// TestDeferStartEnd pins the one-liner the package doc recommends:
// defer evaluates t.Start() when the statement runs, so End fires when
// the function returns and the span covers its whole body.
func TestDeferStartEnd(t *testing.T) {
	tm := New().Timer("deferred")
	func() {
		defer tm.Start().End()
		time.Sleep(5 * time.Millisecond)
	}()
	if st := tm.Stats(); st.Count != 1 || st.Max < 5*time.Millisecond {
		t.Fatalf("deferred span: %+v, want one span of at least 5ms", st)
	}
}

func TestEmptyTimerStatsZero(t *testing.T) {
	r := New()
	if st := r.Timer("never").Stats(); st != (TimerStats{}) {
		t.Fatalf("empty timer stats = %+v, want zero", st)
	}
}

// TestNilSafety drives every operation through a nil registry and nil
// handles — the disabled-telemetry path every instrumented component
// relies on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter must stay 0")
	}
	g := r.Gauge("y")
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must stay 0")
	}
	tm := r.Timer("z")
	tm.Observe(time.Second)
	sp := tm.Start()
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span duration = %v, want 0", d)
	}
	if st := tm.Stats(); st != (TimerStats{}) {
		t.Fatalf("nil timer stats = %+v, want zero", st)
	}
	r.SetLogger(slog.New(&recordHandler{}))
	if r.Logger() != nil {
		t.Fatal("nil registry must hold no logger")
	}
	if snap := r.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Timers) != 0 {
		t.Fatalf("nil snapshot = %+v, want empty", snap)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hits")
			tm := r.Timer("work")
			g := r.Gauge("level")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				tm.Observe(time.Duration(i+1) * time.Nanosecond)
				g.Set(float64(w))
				if lg := r.Logger(); lg != nil {
					lg.LogAttrs(context.Background(), slog.LevelInfo, "round", slog.Int("round", i))
				}
			}
		}(w)
	}
	// Install and remove the round-event logger while the workers read it.
	lg := slog.New(slog.NewJSONHandler(io.Discard, nil))
	for i := 0; i < perWorker; i++ {
		r.SetLogger(lg)
		r.SetLogger(nil)
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*perWorker {
		t.Fatalf("hits = %d, want %d", got, workers*perWorker)
	}
	st := r.Timer("work").Stats()
	if st.Count != workers*perWorker {
		t.Fatalf("timer count = %d, want %d", st.Count, workers*perWorker)
	}
	if st.Min != 1 || st.Max != perWorker {
		t.Fatalf("min/max = %v/%v, want 1ns/%dns", st.Min, st.Max, perWorker)
	}
}

// recordHandler is a slog.Handler keeping every record it is handed.
type recordHandler struct{ records []slog.Record }

func (h *recordHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *recordHandler) Handle(_ context.Context, r slog.Record) error {
	h.records = append(h.records, r)
	return nil
}

func (h *recordHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *recordHandler) WithGroup(string) slog.Handler      { return h }

// TestObserverAndEvents checks the round-event logger slot: empty on a
// new registry, set and read back by SetLogger/Logger, and cleared by
// SetLogger(nil).
func TestObserverAndEvents(t *testing.T) {
	r := New()
	if r.Logger() != nil {
		t.Fatal("new registry already holds a logger")
	}
	h := &recordHandler{}
	lg := slog.New(h)
	r.SetLogger(lg)
	if r.Logger() != lg {
		t.Fatal("Logger() does not return the installed logger")
	}
	r.Logger().LogAttrs(context.Background(), slog.LevelInfo, "round",
		slog.String("scope", "fl"), slog.Int("round", 7), slog.Duration("dur", time.Millisecond))
	if len(h.records) != 1 || h.records[0].Message != "round" || h.records[0].NumAttrs() != 3 {
		t.Fatalf("records = %+v", h.records)
	}
	r.SetLogger(nil)
	if r.Logger() != nil {
		t.Fatal("SetLogger(nil) left a logger installed")
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := New()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("g").Set(0.5)
	r.Timer("t").Observe(time.Millisecond)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a.count" || s.Counters[1].Name != "b.count" {
		t.Fatalf("counters = %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 0.5 {
		t.Fatalf("gauges = %+v", s.Gauges)
	}
	if len(s.Timers) != 1 || s.Timers[0].Count != 1 {
		t.Fatalf("timers = %+v", s.Timers)
	}

	var jsonBuf, textBuf bytes.Buffer
	if err := s.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(jsonBuf.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	if len(round.Counters) != 2 {
		t.Fatalf("round-tripped counters = %+v", round.Counters)
	}
	if err := s.WriteText(&textBuf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a.count", "b.count", "g", "t"} {
		if !strings.Contains(textBuf.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, textBuf.String())
		}
	}
}

func TestStartProfiles(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "prof")
	stop, err := StartProfiles(prefix)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to sample.
	x := 0.0
	for i := 0; i < 1_000_00; i++ {
		x += math.Sqrt(float64(i))
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".cpu.pb.gz", ".heap.pb.gz"} {
		info, err := os.Stat(prefix + suffix)
		if err != nil {
			t.Fatalf("profile %s: %v", suffix, err)
		}
		if info.Size() == 0 {
			t.Fatalf("profile %s is empty", suffix)
		}
	}
}
