package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Kernel support for the GEMM-based layers: per-sample parallel
// dispatch, scratch growth, and optional wall-clock attribution of
// layer time to the pack/GEMM/unpack stages.

// minParallelFlops is the per-call work below which the per-sample
// loops run serially; goroutine startup would dominate otherwise.
const minParallelFlops = 1 << 15

// serialSamples reports whether a per-sample loop over n samples
// should run on the calling goroutine: a single P, a single sample, or
// too little work to amortise goroutine startup.
func serialSamples(n, flopsPerSample int) bool {
	return runtime.GOMAXPROCS(0) <= 1 || n <= 1 ||
		n*flopsPerSample < minParallelFlops
}

// sampleFan runs run(i) for the samples of a batch, in contiguous
// chunks across up to GOMAXPROCS goroutines. Its workers are bound
// once, each to its chunk, and its WaitGroup is reused, so a fan-out
// allocates nothing once it has run at a given width. Each sample is
// processed exactly once by exactly one goroutine, so results never
// depend on the partitioning. A sampleFan is owned by one layer and is
// not safe for concurrent use.
type sampleFan struct {
	run      func(i int) // bound once by the owning layer
	n, chunk int
	wg       sync.WaitGroup
	workers  []func()
}

// forEach runs run(i) for i in [0, n): inline when serialSamples says
// so, otherwise one chunk per worker.
func (f *sampleFan) forEach(n, flopsPerSample int) {
	if serialSamples(n, flopsPerSample) {
		for i := 0; i < n; i++ {
			f.run(i)
		}
		return
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	f.n, f.chunk = n, (n+workers-1)/workers
	chunks := (n + f.chunk - 1) / f.chunk
	for w := len(f.workers); w < chunks; w++ {
		f.workers = append(f.workers, func() {
			defer f.wg.Done()
			for i := w * f.chunk; i < min((w+1)*f.chunk, f.n); i++ {
				f.run(i)
			}
		})
	}
	f.wg.Add(chunks)
	for _, work := range f.workers[:chunks] {
		go work()
	}
	f.wg.Wait()
}

// growFloats returns buf resized to n elements, reusing its backing
// array when capacity allows and otherwise returning a new, zeroed
// one. A reused buffer keeps what it held. Conv2D's padded buffers
// (xpad, gpad) rely on both: their zero borders are written only by
// this allocation, and every later call hands them back untouched.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Kernel timing: process-wide nanosecond accumulators attributing
// layer time to the conv layer's stages — packing a sample into its
// zero-padded copy, the GEMM kernels, and unpacking results out of the
// padded-width buffers. Disabled (zero cost beyond one atomic load per
// layer call) unless EnableKernelTiming is on; fl.Simulation enables it
// when telemetry is configured and publishes per-round deltas under the
// nn.kernel.* timer names.
var (
	kernelTimingOn atomic.Bool
	packNanos      atomic.Int64
	gemmNanos      atomic.Int64
	unpackNanos    atomic.Int64
)

// EnableKernelTiming switches kernel wall-clock attribution on or off
// process-wide. Timing never affects computed values.
func EnableKernelTiming(on bool) { kernelTimingOn.Store(on) }

// KernelTimingEnabled reports whether kernel attribution is active.
func KernelTimingEnabled() bool { return kernelTimingOn.Load() }

// KernelTimes returns the cumulative time spent packing, in the GEMM
// kernels and unpacking since process start (zero while timing is
// disabled). Callers diff successive readings to attribute a phase.
func KernelTimes() (packT, gemmT, unpackT time.Duration) {
	return time.Duration(packNanos.Load()),
		time.Duration(gemmNanos.Load()),
		time.Duration(unpackNanos.Load())
}
