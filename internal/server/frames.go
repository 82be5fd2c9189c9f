//go:build go1.24

package server

import (
	"sync"
	"unsafe"
	"weak"
)

// framePool is the coordinator's free list of dense upload frames:
// the []float64 a dense gradient is read into, handed back once the
// round that held it has resolved. It keeps weak pointers only, so a
// frame nobody uses is reclaimed by the next GC cycle like any other
// garbage and the pool never adds to the live heap — sync.Pool's
// victim cache would keep a cohort of frames alive across one GC. All
// of a coordinator's frames have its model dimension.
type framePool struct {
	mu   sync.Mutex
	free []weak.Pointer[float64]
}

// get returns a recycled frame of dim elements holding stale values,
// or nil when every frame on the list has been collected.
func (p *framePool) get(dim int) []float64 {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for n := len(p.free); n > 0; n = len(p.free) {
		w := p.free[n-1]
		p.free = p.free[:n-1]
		if v := w.Value(); v != nil {
			return unsafe.Slice(v, dim)
		}
	}
	return nil
}

// put hands frame back for reuse; the caller must hold no other
// reference to it. A nil or empty frame is ignored.
func (p *framePool) put(frame []float64) {
	if p == nil || len(frame) == 0 {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, weak.Make(&frame[0]))
	p.mu.Unlock()
}
