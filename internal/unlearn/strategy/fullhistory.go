package strategy

import (
	"fmt"
	"sort"
	"sync"

	"fuiov/internal/fl"
	"fuiov/internal/history"
	"fuiov/internal/telemetry"
	"fuiov/internal/tensor"
)

// FullHistory records complete float64 gradients per round — the
// storage regime of FedRecover, FedRecovery and FedEraser
// (NeedsFullHistory) that the paper's direction-only scheme is designed
// to avoid. It implements fl.Recorder so one training run can feed all
// methods.
type FullHistory struct {
	mu sync.RWMutex

	dim     int
	models  [][]float64
	grads   []map[history.ClientID][]float64
	weights []map[history.ClientID]float64
	joins   map[history.ClientID]int

	bytes *telemetry.Counter
}

// SetTelemetry attaches a metrics registry: RecordRound then counts
// gradient storage under baselines.fullhistory.bytes, making the
// full-gradient regime directly comparable against history.Store's
// live gauges. Pass nil to detach.
func (h *FullHistory) SetTelemetry(r *telemetry.Registry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.bytes = r.Counter(telemetry.FullHistoryBytes)
}

var _ fl.Recorder = (*FullHistory)(nil)

// NewFullHistory creates a store for models with dim parameters.
func NewFullHistory(dim int) (*FullHistory, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("strategy: full history: invalid dimension %d", dim)
	}
	return &FullHistory{dim: dim, joins: make(map[history.ClientID]int)}, nil
}

// Dim returns the model dimension.
func (h *FullHistory) Dim() int { return h.dim }

// Rounds returns the number of recorded rounds.
func (h *FullHistory) Rounds() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.models)
}

// RecordRound implements fl.Recorder, deep-copying every input.
func (h *FullHistory) RecordRound(t int, model []float64, grads map[history.ClientID][]float64, weights map[history.ClientID]float64) error {
	if len(model) != h.dim {
		return fmt.Errorf("strategy: full history: model dimension %d, want %d", len(model), h.dim)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if t != len(h.models) {
		return fmt.Errorf("strategy: full history: round %d out of order (next is %d)", t, len(h.models))
	}
	gcopy := make(map[history.ClientID][]float64, len(grads))
	wcopy := make(map[history.ClientID]float64, len(grads))
	for id, g := range grads {
		if len(g) != h.dim {
			return fmt.Errorf("strategy: full history: client %d gradient dimension %d, want %d", id, len(g), h.dim)
		}
		gcopy[id] = tensor.CloneVec(g)
		w := 1.0
		if weights != nil {
			if ww, ok := weights[id]; ok {
				w = ww
			}
		}
		wcopy[id] = w
		if _, seen := h.joins[id]; !seen {
			h.joins[id] = t
		}
	}
	h.models = append(h.models, tensor.CloneVec(model))
	h.grads = append(h.grads, gcopy)
	h.weights = append(h.weights, wcopy)
	h.bytes.Add(int64(len(gcopy) * h.dim * 8))
	return nil
}

// Model returns a copy of the round-t model snapshot.
func (h *FullHistory) Model(t int) ([]float64, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if t < 0 || t >= len(h.models) {
		return nil, fmt.Errorf("%w: round %d", history.ErrNoRecord, t)
	}
	return tensor.CloneVec(h.models[t]), nil
}

// Gradient returns a copy of the stored gradient of a client at round
// t.
func (h *FullHistory) Gradient(t int, id history.ClientID) ([]float64, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if t < 0 || t >= len(h.grads) {
		return nil, fmt.Errorf("%w: round %d", history.ErrNoRecord, t)
	}
	g, ok := h.grads[t][id]
	if !ok {
		return nil, fmt.Errorf("%w: client %d at round %d", history.ErrNoRecord, id, t)
	}
	return tensor.CloneVec(g), nil
}

// Weight returns the aggregation weight of a client at round t.
func (h *FullHistory) Weight(t int, id history.ClientID) (float64, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if t < 0 || t >= len(h.weights) {
		return 0, fmt.Errorf("%w: round %d", history.ErrNoRecord, t)
	}
	w, ok := h.weights[t][id]
	if !ok {
		return 0, fmt.Errorf("%w: client %d at round %d", history.ErrNoRecord, id, t)
	}
	return w, nil
}

// Participants returns the sorted participant IDs at round t.
func (h *FullHistory) Participants(t int) ([]history.ClientID, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if t < 0 || t >= len(h.grads) {
		return nil, fmt.Errorf("%w: round %d", history.ErrNoRecord, t)
	}
	out := make([]history.ClientID, 0, len(h.grads[t]))
	for id := range h.grads[t] {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// JoinRound returns the first round the client participated in.
func (h *FullHistory) JoinRound(id history.ClientID) (int, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	t, ok := h.joins[id]
	if !ok {
		return 0, fmt.Errorf("%w: client %d", history.ErrNoRecord, id)
	}
	return t, nil
}

// StorageBytes reports the bytes consumed by stored gradients
// (8 bytes per element), the figure the paper's direction encoding
// divides by ~32.
func (h *FullHistory) StorageBytes() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var n int
	for _, round := range h.grads {
		n += len(round) * h.dim * 8
	}
	return n
}
