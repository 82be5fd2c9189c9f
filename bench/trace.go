package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark's own code:
// a request the generator made, a phase of an episode, or a replay
// call into a layer. Spans of one episode share its number.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Episode int    `json:"episode"`
	// Round is the federated round the span belongs to, −1 if none.
	Round   int   `json:"round"`
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	episode int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setEpisode stamps later spans with episode number n.
func (t *tracer) setEpisode(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.episode = n
	t.mu.Unlock()
}

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(name string, parent int64, round int, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Episode: t.episode, Round: round,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// open records a span whose end is not known yet and returns its ID,
// so children can name it as their parent; close sets the end.
func (t *tracer) open(name string, parent int64, round int) int64 {
	now := time.Now()
	return t.add(name, parent, round, now, now)
}

func (t *tracer) close(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// traceFile is what a traced run leaves in the output directory.
type traceFile struct {
	Workload       string             `json:"workload"`
	Seed           uint64             `json:"seed"`
	Reconciliation map[string]float64 `json:"reconciliation_ms_per_round"`
	Spans          []span             `json:"spans"`
}

// write stores the spans as <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64, recon map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := traceFile{Workload: workload, Seed: seed, Reconciliation: recon, Spans: t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
