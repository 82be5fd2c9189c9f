package sign

// hasAVX2 reports whether the CPU executes AVX2 and the OS saves the
// YMM registers across context switches, probed once at init: CPUID
// leaf 1 ECX for OSXSAVE (bit 27) and AVX (bit 28), XCR0 bits 1–2 for
// the OS-saved SSE and AVX state, and CPUID leaf 7 EBX for AVX2
// (bit 5). Nothing else selects the kernels.
var hasAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XGETBV faults unless OSXSAVE is set, hence the order.
	if xgetbv()&0b110 != 0b110 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuid executes CPUID with EAX=leaf, ECX=sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0.
func xgetbv() uint32

// compressAVX2 is compressGo over whole 8-element blocks: len(g) is a
// multiple of 8 and len(packed) is len(g)/4. Each block is compared
// against delta and negDelta four lanes at a time (VCMPPD, ordered
// and quiet, so NaN compares false both ways and encodes as zero), the
// lane masks are extracted (VMOVMSKPD) and spread to the 2-bit slots
// through a 16-entry table.
//
//go:noescape
func compressAVX2(packed []byte, g []float64, delta, negDelta float64)

// accumulateAVX2 is accumulateGo over whole packed bytes: len(dst) is
// 4·len(packed). Per byte it loads the denseLUT row, multiplies it by
// w and adds dst — two roundings, the Go loop's, never a fused
// multiply-add — then stores the four sums.
//
//go:noescape
func accumulateAVX2(dst []float64, packed []byte, w float64)
