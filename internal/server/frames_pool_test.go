//go:build go1.24

package server

import (
	"runtime"
	"sync"
	"testing"
)

// TestFramePoolReusesUntilGC: a frame handed back is handed out again,
// but the pool alone does not keep it alive — after a GC cycle with no
// other reference, get finds nothing and the caller allocates. Several
// goroutines then share one pool, and no frame is ever handed to two
// holders at once.
func TestFramePoolReusesUntilGC(t *testing.T) {
	const dim = 1 << 15 // 256 KB, well clear of the tiny-object allocator
	var p framePool
	if f := p.get(dim); f != nil {
		t.Fatal("an empty pool handed out a frame")
	}
	f := make([]float64, dim)
	p.put(f)
	g := p.get(dim)
	if len(g) != dim || &g[0] != &f[0] {
		t.Fatal("a frame handed back was not reused")
	}
	p.put(g)
	f, g = nil, nil
	runtime.GC()
	if f := p.get(dim); f != nil {
		t.Fatal("the pool kept a frame alive across a GC cycle")
	}

	var mu sync.Mutex
	held := make(map[*float64]bool)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fr := p.get(dim)
				if fr == nil {
					fr = make([]float64, dim)
				}
				mu.Lock()
				if held[&fr[0]] {
					t.Error("one frame handed to two holders")
				}
				held[&fr[0]] = true
				mu.Unlock()
				fr[i%dim] = float64(i)
				mu.Lock()
				delete(held, &fr[0])
				mu.Unlock()
				p.put(fr)
			}
		}()
	}
	wg.Wait()
}
