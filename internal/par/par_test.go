package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestLoopVisitsEachIndexOnce: every index of [0, n) is handed to
// exactly one Body call, in chunks that never overlap, at every width —
// more workers than indices included — and one Loop serves growing and
// shrinking widths in turn.
func TestLoopVisitsEachIndexOnce(t *testing.T) {
	var visits []atomic.Int32
	var calls atomic.Int32
	l := Loop{Body: func(lo, hi int) {
		calls.Add(1)
		for i := lo; i < hi; i++ {
			visits[i].Add(1)
		}
	}}
	for _, n := range []int{0, 1, 2, 3, 7, 64} {
		for _, workers := range []int{1, 2, 3, 4, 5, 4, 2, 1} {
			visits = make([]atomic.Int32, n)
			calls.Store(0)
			l.Run(n, workers)
			for i := range visits {
				if v := visits[i].Load(); v != 1 {
					t.Fatalf("n %d workers %d: index %d visited %d times", n, workers, i, v)
				}
			}
			if c := int(calls.Load()); c > workers || (n > 0 && c == 0) {
				t.Errorf("n %d workers %d: %d Body calls", n, workers, c)
			}
		}
	}
}

// TestLoopAllocs: once a Loop has run at a width, running it again at
// that width or a narrower one allocates nothing.
func TestLoopAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var sum atomic.Int64
	l := Loop{Body: func(lo, hi int) { sum.Add(int64(hi - lo)) }}
	for _, workers := range []int{1, 2, 4} {
		l.Run(64, workers) // warm-up: binds the workers
		if allocs := testing.AllocsPerRun(100, func() { l.Run(64, workers) }); allocs != 0 {
			t.Errorf("workers %d: Run allocated %v times, want 0", workers, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { l.Run(64, 3) }); allocs != 0 {
		t.Errorf("workers 3 after 4: Run allocated %v times, want 0", allocs)
	}
}

// TestWorkers: Workers keeps the rule the GEMM kernels and the conv
// layer each stated for themselves before they shared it: one chunk with
// a single P, a single item or under MinWork of work in all; otherwise
// one per P, at most one per item.
func TestWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	serial := func(procs, n, perItem int) bool {
		return procs <= 1 || n <= 1 || n*perItem < 1<<15
	}
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
			for _, perItem := range []int{0, 1, 32, 511, 512, 4681, 1 << 15} {
				want := min(procs, n)
				if serial(procs, n, perItem) {
					want = 1
				}
				if got := Workers(n, perItem); got != want {
					t.Errorf("GOMAXPROCS %d, n %d, perItem %d: Workers = %d, want %d", procs, n, perItem, got, want)
				}
			}
		}
	}
}
