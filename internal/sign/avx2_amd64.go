package sign

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
