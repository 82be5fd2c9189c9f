// Package par is the repository's one data-parallel loop: split [0, n)
// into contiguous chunks and run each on its own goroutine. Every
// caller computes each index once, by the same code, whatever the
// split, so no result depends on the worker count — the property the
// golden-bit and bit-identity tests pin.
package par

import (
	"runtime"
	"sync"
)

// MinWork is the work, in flops, below which a loop runs on the calling
// goroutine: under it, starting goroutines costs more than they save.
const MinWork = 1 << 15

// Workers is how many chunks a loop over n items of perItem flops each
// is worth: one with a single P, a single item, or less than MinWork in
// all; otherwise one per P, at most n.
func Workers(n, perItem int) int {
	procs := runtime.GOMAXPROCS(0)
	if procs <= 1 || n <= 1 || n*perItem < MinWork {
		return 1
	}
	return min(procs, n)
}

// Loop runs Body over [0, n) in contiguous chunks. Its workers are
// bound once, each to its chunk index, and its WaitGroup is reused, so
// a Run allocates nothing once the Loop has run at that width. A Loop
// must not be copied after its first Run, nor run concurrently with
// itself.
type Loop struct {
	// Body handles the indices [lo, hi); chunks never overlap.
	Body func(lo, hi int)

	n, chunk int
	wg       sync.WaitGroup
	workers  []func()
}

// Run calls Body over [0, n) split into at most workers chunks of
// ⌈n/workers⌉ indices. One chunk runs on the calling goroutine;
// otherwise every chunk gets its own goroutine while the caller waits.
func (l *Loop) Run(n, workers int) {
	if n <= 0 {
		return
	}
	workers = max(1, min(workers, n))
	chunk := (n + workers - 1) / workers
	chunks := (n + chunk - 1) / chunk
	if chunks == 1 {
		l.Body(0, n)
		return
	}
	l.n, l.chunk = n, chunk
	for w := len(l.workers); w < chunks; w++ {
		l.workers = append(l.workers, func() {
			defer l.wg.Done()
			lo := w * l.chunk
			l.Body(lo, min(lo+l.chunk, l.n))
		})
	}
	l.wg.Add(chunks)
	for _, work := range l.workers[:chunks] {
		go work()
	}
	l.wg.Wait()
}
