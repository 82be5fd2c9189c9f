#include "textflag.h"

// func reluMaskAVX2(dst, x, y []float64)
TEXT ·reluMaskAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVQ y_base+48(FP), DX
	SHRQ $2, CX              // 4-element blocks
	JZ   done
	VXORPD Y0, Y0, Y0
	MOVQ CX, AX
	SHRQ $1, AX              // 8-element steps
	JZ   four

loop:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VCMPPD  $0x1e, Y0, Y1, Y1     // GT_OQ: x > 0
	VCMPPD  $0x1e, Y0, Y2, Y2
	VANDPD  (DX), Y1, Y1          // y where x > 0, else +0
	VANDPD  32(DX), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	DECQ AX
	JNZ  loop

four:
	ANDQ $1, CX
	JZ   end
	VMOVUPD (SI), Y1
	VCMPPD  $0x1e, Y0, Y1, Y1
	VANDPD  (DX), Y1, Y1
	VMOVUPD Y1, (DI)

end:
	VZEROUPPER

done:
	RET

// pool2<> holds the index vectors of one 4-output block: the
// top-left columns' offsets, +1 for the right column, and +8 for the
// next block. They are loaded from memory, and iw and base broadcast
// from the frame, because moving a GPR into an X register needs a
// legacy-SSE MOVQ, and one of those after the VEX code before it
// stalled every call by about 0.4 µs on a 2.1 GHz Xeon.
DATA pool2<>+0(SB)/8, $0
DATA pool2<>+8(SB)/8, $2
DATA pool2<>+16(SB)/8, $4
DATA pool2<>+24(SB)/8, $6
DATA pool2<>+32(SB)/8, $1
DATA pool2<>+40(SB)/8, $1
DATA pool2<>+48(SB)/8, $1
DATA pool2<>+56(SB)/8, $1
DATA pool2<>+64(SB)/8, $8
DATA pool2<>+72(SB)/8, $8
DATA pool2<>+80(SB)/8, $8
DATA pool2<>+88(SB)/8, $8
GLOBL pool2<>(SB), RODATA|NOPTR, $96

// split separates a row's eight columns, loaded into lo and hi, into
// the even (kx = 0) and odd (kx = 1) window columns of four outputs:
// the unpacks give (c0 c4 c2 c6) and (c1 c5 c3 c7), and VPERMPD $0xD8
// puts lanes 1 and 2 back in output order.
#define split(lo, hi, even, odd) \
	VUNPCKLPD hi, lo, even     \
	VUNPCKHPD hi, lo, odd      \
	VPERMPD   $0xD8, even, even \
	VPERMPD   $0xD8, odd, odd

// fold replaces the running maximum Y0 and its index Y1 by the
// candidate val at index idx where val > Y0 (GT_OQ: strict, false for
// a NaN on either side).
#define fold(val, idx) \
	VCMPPD    $0x1e, Y0, val, Y15 \
	VBLENDVPD Y15, val, Y0, Y0    \
	VBLENDVPD Y15, idx, Y1, Y1

// func maxPool2AVX2(y []float64, am []int, in []float64, iw, base int)
TEXT ·maxPool2AVX2(SB), NOSPLIT, $0-88
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ am_base+24(FP), R10
	MOVQ in_base+48(FP), SI
	MOVQ iw+72(FP), R9
	SHRQ $2, CX              // 4-output blocks
	JZ   done
	LEAQ (SI)(R9*8), DX      // second window row
	LEAQ pool2<>(SB), AX
	VPBROADCASTQ base+80(FP), Y8
	VPADDQ       (AX), Y8, Y8 // top-left index of each lane
	VMOVDQU      32(AX), Y9   // +1: right column
	VPBROADCASTQ iw+72(FP), Y10 // +iw: bottom row
	VMOVDQU      64(AX), Y11  // +8: next block

loop:
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	split(Y2, Y3, Y0, Y4)    // top-left → Y0, top-right → Y4
	VMOVUPD (DX), Y2
	VMOVUPD 32(DX), Y3
	split(Y2, Y3, Y5, Y6)    // bottom-left → Y5, bottom-right → Y6
	VMOVDQU Y8, Y1
	VPADDQ  Y9, Y8, Y12      // top-right index
	fold(Y4, Y12)
	VPADDQ  Y10, Y8, Y13     // bottom-left index
	fold(Y5, Y13)
	VPADDQ  Y9, Y13, Y14     // bottom-right index
	fold(Y6, Y14)
	VMOVUPD Y0, (DI)
	VMOVDQU Y1, (R10)
	VPADDQ  Y11, Y8, Y8
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $32, DI
	ADDQ $32, R10
	DECQ CX
	JNZ  loop
	VZEROUPPER

done:
	RET
