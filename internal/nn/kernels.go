package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Kernel support for the GEMM-based layers: im2col/col2im patch
// (un)packing, per-sample parallel dispatch, and optional wall-clock
// attribution of layer time to the im2col/GEMM/col2im kernels.

// minParallelFlops is the per-call work below which the per-sample
// loops run serially; goroutine startup would dominate otherwise.
const minParallelFlops = 1 << 15

// serialSamples reports whether a per-sample loop over n samples
// should run on the calling goroutine: a single P, a single sample, or
// too little work to amortise goroutine startup. Callers check it
// BEFORE building the closure for spawnSamples, so the serial path
// allocates nothing.
func serialSamples(n, flopsPerSample int) bool {
	return runtime.GOMAXPROCS(0) <= 1 || n <= 1 ||
		n*flopsPerSample < minParallelFlops
}

// spawnSamples runs fn(i) for i in [0, n), partitioning the samples
// into contiguous chunks across up to GOMAXPROCS goroutines. Each
// sample is processed exactly once by exactly one goroutine, so
// results never depend on the partitioning. Callers gate on
// serialSamples first.
func spawnSamples(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// growFloats returns buf resized to n elements, reusing its backing
// array when capacity allows. Contents are unspecified; callers
// overwrite every element.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// im2col unpacks one sample into patch-matrix form: col[ck*p+pos]
// holds input element (ic, oy+ky-off, ox+kx-off) for patch row
// ck = (ic*K+ky)*K+kx and output position pos = oy*ow+ox, with zeros
// where the receptive field hangs over the padding border. Rows are
// ordered exactly like the convolution weights, so W·col is the
// convolution with the same k-accumulation order as the direct loop.
func im2col(in, col []float64, dims Dims, k, off int, out Dims) {
	ih, iw := dims.H, dims.W
	oh, ow := out.H, out.W
	p := oh * ow
	ck := 0
	for ic := 0; ic < dims.C; ic++ {
		inBase := ic * ih * iw
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := col[ck*p : (ck+1)*p]
				// Valid ox range keeps sx = ox+kx-off inside [0, iw).
				oxLo, oxHi := 0, ow
				if lo := off - kx; lo > oxLo {
					oxLo = lo
				}
				if hi := iw + off - kx; hi < oxHi {
					oxHi = hi
				}
				for oy := 0; oy < oh; oy++ {
					seg := row[oy*ow : (oy+1)*ow]
					sy := oy + ky - off
					if sy < 0 || sy >= ih || oxLo >= oxHi {
						for i := range seg {
							seg[i] = 0
						}
						continue
					}
					for i := 0; i < oxLo; i++ {
						seg[i] = 0
					}
					src := in[inBase+sy*iw+oxLo+kx-off : inBase+sy*iw+oxHi+kx-off]
					copy(seg[oxLo:oxHi], src)
					for i := oxHi; i < ow; i++ {
						seg[i] = 0
					}
				}
				ck++
			}
		}
	}
}

// col2im scatter-adds a patch-matrix gradient back onto the input
// layout: the exact adjoint of im2col. din must be pre-zeroed (or hold
// a gradient to accumulate onto).
func col2im(dcol, din []float64, dims Dims, k, off int, out Dims) {
	ih, iw := dims.H, dims.W
	oh, ow := out.H, out.W
	p := oh * ow
	ck := 0
	for ic := 0; ic < dims.C; ic++ {
		inBase := ic * ih * iw
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := dcol[ck*p : (ck+1)*p]
				oxLo, oxHi := 0, ow
				if lo := off - kx; lo > oxLo {
					oxLo = lo
				}
				if hi := iw + off - kx; hi < oxHi {
					oxHi = hi
				}
				for oy := 0; oy < oh; oy++ {
					sy := oy + ky - off
					if sy < 0 || sy >= ih || oxLo >= oxHi {
						continue
					}
					seg := row[oy*ow : (oy+1)*ow]
					base := inBase + sy*iw + kx - off
					for ox := oxLo; ox < oxHi; ox++ {
						din[base+ox] += seg[ox]
					}
				}
				ck++
			}
		}
	}
}

// Kernel timing: process-wide nanosecond accumulators attributing
// layer time to the im2col/GEMM/col2im kernels. Disabled (zero cost
// beyond one atomic load per layer call) unless EnableKernelTiming is
// on; fl.Simulation enables it when telemetry is configured and
// publishes per-round deltas under the nn.kernel.* timer names.
var (
	kernelTimingOn atomic.Bool
	im2colNanos    atomic.Int64
	gemmNanos      atomic.Int64
	col2imNanos    atomic.Int64
)

// EnableKernelTiming switches kernel wall-clock attribution on or off
// process-wide. Timing never affects computed values.
func EnableKernelTiming(on bool) { kernelTimingOn.Store(on) }

// KernelTimingEnabled reports whether kernel attribution is active.
func KernelTimingEnabled() bool { return kernelTimingOn.Load() }

// KernelTimes returns the cumulative time spent in the im2col, GEMM
// and col2im kernels since process start (zero while timing is
// disabled). Callers diff successive readings to attribute a phase.
func KernelTimes() (im2colT, gemmT, col2imT time.Duration) {
	return time.Duration(im2colNanos.Load()),
		time.Duration(gemmNanos.Load()),
		time.Duration(col2imNanos.Load())
}
