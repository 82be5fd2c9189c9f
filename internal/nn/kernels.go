package nn

import (
	"sync/atomic"
	"time"
)

// Kernel support for the GEMM-based layers: scratch growth and
// optional wall-clock attribution of layer time to the pack/GEMM/unpack
// stages.

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
