package cpuid

// AVX2 reports whether the CPU executes AVX2 and the OS saves the YMM
// registers across context switches, probed once at init: CPUID leaf 1
// ECX for OSXSAVE (bit 27) and AVX (bit 28), XCR0 bits 1–2 for the
// OS-saved SSE and AVX state, and CPUID leaf 7 EBX for AVX2 (bit 5).
var AVX2 = hasAVX2()

func hasAVX2() bool {
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
