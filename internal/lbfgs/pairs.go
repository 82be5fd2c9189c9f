package lbfgs

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Column is one pair vector. A PairBuffer window and every Approx built
// from it alias a Column instead of copying it, and each counts itself
// as a holder; while any holder remains (Held) the vector must not
// change. A Column made with NewColumn may be pushed into many buffers
// at once — the recovery pass shares one Δw column per round among all
// its clients — and goes back to its maker once Held reports false.
// Columns a buffer allocates for itself return to that buffer's free
// list instead. The holder count is atomic, so buffers sharing a
// Column may push, evict and release concurrently.
type Column struct {
	vec   []float64
	refs  atomic.Int32
	owner *PairBuffer // non-nil for storage a buffer takes back at zero holders
}

// NewColumn returns a zeroed, unheld column of length dim.
func NewColumn(dim int) *Column { return &Column{vec: make([]float64, dim)} }

// Vec returns the column's vector. Write it only while Held is false.
func (c *Column) Vec() []float64 { return c.vec }

// Held reports whether a buffer window or an unreleased Approx still
// aliases c.
func (c *Column) Held() bool { return c.refs.Load() > 0 }

func (c *Column) hold() { c.refs.Add(1) }

func (c *Column) drop() {
	if c.refs.Add(-1) == 0 && c.owner != nil {
		c.owner.free = append(c.owner.free, c)
	}
}

// PairBuffer holds a sliding window of the s most recent vector pairs
// (Δw, Δg) and builds Approx instances on demand. The recovery loop
// bootstraps the buffer from pre-join history and refreshes it with
// pairs from the recovered trajectory (§IV-B, "when the model accuracy
// continuously diminishes, the server must update the vector pairs").
//
// Build aliases the window's storage rather than cloning it, and a
// buffer reuses storage only once neither its window nor any
// unreleased Approx holds it: a caller that Releases each Approx it
// replaces runs on a fixed pool of s+1 Δg vectors, and one that never
// releases gets fresh storage per push, every Approx staying valid.
// A buffer, and the Approx it builds, must be used from one goroutine
// at a time.
type PairBuffer struct {
	capacity int
	dW, dG   []*Column
	slot     *Column   // pending Δg storage handed out by Slot
	free     []*Column // own storage nothing holds any more
}

// NewPairBuffer creates a buffer holding at most capacity pairs.
func NewPairBuffer(capacity int) (*PairBuffer, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("lbfgs: pair buffer capacity %d", capacity)
	}
	return &PairBuffer{capacity: capacity}, nil
}

// Len returns the number of pairs currently held.
func (p *PairBuffer) Len() int { return len(p.dW) }

// Full reports whether the buffer holds capacity pairs.
func (p *PairBuffer) Full() bool { return len(p.dW) == p.capacity }

// take returns own storage of length dim: recycled when the free list
// has some, fresh otherwise.
func (p *PairBuffer) take(dim int) *Column {
	for len(p.free) > 0 {
		c := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		if len(c.vec) == dim {
			return c
		}
	}
	return &Column{vec: make([]float64, dim), owner: p}
}

// Slot returns the storage the next PushSlot adopts as its Δg, so the
// caller can build Δg in place. Until a push consumes it, every call
// with the same dim returns the same slice.
func (p *PairBuffer) Slot(dim int) []float64 {
	if p.slot == nil || len(p.slot.vec) != dim {
		p.slot = p.take(dim)
	}
	return p.slot.vec
}

// PushSlot appends the pair (dw, Slot's storage) without copying
// either, evicting the oldest pair when at capacity. dw is aliased: its
// vector must not change while it is Held. The Δg written into Slot's
// slice belongs to the buffer from here on; the caller must not write
// it again.
func (p *PairBuffer) PushSlot(dw *Column) error {
	if p.slot == nil {
		return errors.New("lbfgs: PushSlot without a Slot")
	}
	if len(dw.vec) != len(p.slot.vec) {
		return fmt.Errorf("lbfgs: pair dimensions %d vs %d", len(dw.vec), len(p.slot.vec))
	}
	if len(p.dW) > 0 && len(p.dW[0].vec) != len(dw.vec) {
		return fmt.Errorf("lbfgs: pair dimension %d, buffer holds %d", len(dw.vec), len(p.dW[0].vec))
	}
	if len(p.dW) == p.capacity {
		p.dW[0].drop()
		p.dG[0].drop()
		copy(p.dW, p.dW[1:])
		copy(p.dG, p.dG[1:])
		p.dW, p.dG = p.dW[:p.capacity-1], p.dG[:p.capacity-1]
	}
	dw.hold()
	p.slot.hold()
	p.dW = append(p.dW, dw)
	p.dG = append(p.dG, p.slot)
	p.slot = nil
	return nil
}

// Push appends a pair, evicting the oldest when at capacity. Both
// inputs are copied — into recycled storage once the pool is warm — so
// the caller may reuse them at once.
func (p *PairBuffer) Push(dw, dg []float64) error {
	if len(dw) != len(dg) {
		return fmt.Errorf("lbfgs: pair dimensions %d vs %d", len(dw), len(dg))
	}
	if len(p.dW) > 0 && len(p.dW[0].vec) != len(dw) {
		return fmt.Errorf("lbfgs: pair dimension %d, buffer holds %d", len(dw), len(p.dW[0].vec))
	}
	w := p.take(len(dw))
	copy(w.vec, dw)
	copy(p.Slot(len(dg)), dg)
	return p.PushSlot(w)
}

// Reset discards all pairs.
func (p *PairBuffer) Reset() {
	for i := range p.dW {
		p.dW[i].drop()
		p.dG[i].drop()
	}
	p.dW, p.dG = p.dW[:0], p.dG[:0]
}

// Build constructs the compact approximation from the current pairs.
// The Approx aliases the window's columns and holds them until its
// Release.
func (p *PairBuffer) Build() (*Approx, error) {
	if len(p.dW) == 0 {
		return nil, errors.New("lbfgs: empty pair buffer")
	}
	dW, dG := make([][]float64, len(p.dW)), make([][]float64, len(p.dG))
	for i := range p.dW {
		dW[i], dG[i] = p.dW[i].vec, p.dG[i].vec
	}
	a, err := newAliased(dW, dG)
	if err != nil {
		return nil, err
	}
	a.held = make([]*Column, 0, 2*len(p.dW))
	a.held = append(append(a.held, p.dW...), p.dG...)
	for _, c := range a.held {
		c.hold()
	}
	return a, nil
}
