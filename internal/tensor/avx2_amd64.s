#include "textflag.h"

// func saxpyAVX2(orow []float64, av float64, brow []float64)
TEXT ·saxpyAVX2(SB), NOSPLIT, $0-56
	MOVQ orow_base+0(FP), DI
	MOVQ brow_base+32(FP), SI
	MOVQ brow_len+40(FP), CX
	SHRQ $2, CX              // 4-element blocks
	JZ   done
	VBROADCASTSD av+24(FP), Y0
	MOVQ CX, AX
	SHRQ $1, AX              // 8-element steps
	JZ   four

loop:
	VMULPD  (SI), Y0, Y1     // av·brow
	VMULPD  32(SI), Y0, Y2
	VADDPD  (DI), Y1, Y1     // + orow
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ AX
	JNZ  loop

four:
	ANDQ $1, CX
	JZ   end
	VMULPD  (SI), Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)

end:
	VZEROUPPER

done:
	RET

// transpose4 turns Y4..Y7, rows j..j+3 of b over four k-steps, into
// the four k-step columns (lane c = row j+c), still in Y4..Y7: the
// unpacks pair rows 0/1 and 2/3 by element, (r0[0] r1[0] r0[2] r1[2])
// and so on into Y8..Y11, and each VPERM2F128 joins two 128-bit halves
// into one column.
#define transpose4 \
	VUNPCKLPD  Y5, Y4, Y8         \
	VUNPCKHPD  Y5, Y4, Y9         \
	VUNPCKLPD  Y7, Y6, Y10        \
	VUNPCKHPD  Y7, Y6, Y11        \
	VPERM2F128 $0x20, Y10, Y8, Y4 \
	VPERM2F128 $0x20, Y11, Y9, Y5 \
	VPERM2F128 $0x31, Y10, Y8, Y6 \
	VPERM2F128 $0x31, Y11, Y9, Y7

// term4 adds a[r][k+off]·col to the accumulator of each of the four
// rows r (a row 0 at SI, row stride R9, row 3 at R12).
#define term4(off, col) \
	VBROADCASTSD off(SI), Y12        \
	VBROADCASTSD off(SI)(R9*1), Y13  \
	VBROADCASTSD off(SI)(R9*2), Y14  \
	VBROADCASTSD off(R12), Y15       \
	VMULPD       col, Y12, Y12       \
	VMULPD       col, Y13, Y13       \
	VMULPD       col, Y14, Y14       \
	VMULPD       col, Y15, Y15       \
	VADDPD       Y12, Y0, Y0         \
	VADDPD       Y13, Y1, Y1         \
	VADDPD       Y14, Y2, Y2         \
	VADDPD       Y15, Y3, Y3

// func gemmNT4AVX2(dst, a, b []float64, n, k, nv int, acc bool)
TEXT ·gemmNT4AVX2(SB), NOSPLIT, $0-97
	MOVQ dst_base+0(FP), DI  // dst row 0, column j
	MOVQ a_base+24(FP), R10  // a row 0
	MOVQ b_base+48(FP), R11  // b row j
	MOVQ n+72(FP), R8
	SHLQ $3, R8              // dst row stride in bytes
	MOVQ k+80(FP), R9
	SHLQ $3, R9              // a and b row stride in bytes
	MOVQ nv+88(FP), CX
	SHRQ $2, CX              // 4-column blocks
	JZ   done

block:
	LEAQ    (R8)(R8*2), DX
	MOVBLZX acc+96(FP), AX
	TESTQ   AX, AX
	JZ      zero
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R8*1), Y1
	VMOVUPD (DI)(R8*2), Y2
	VMOVUPD (DI)(DX*1), Y3
	JMP     start

zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

start:
	LEAQ (R9)(R9*2), DX
	MOVQ R10, SI
	LEAQ (R10)(DX*1), R12    // a row 3
	MOVQ R11, BX
	LEAQ (R11)(DX*1), R13    // b row j+3
	MOVQ k+80(FP), AX
	SHRQ $2, AX
	JZ   tail

quad:
	VMOVUPD (BX), Y4
	VMOVUPD (BX)(R9*1), Y5
	VMOVUPD (BX)(R9*2), Y6
	VMOVUPD (R13), Y7
	transpose4
	term4(0, Y4)
	term4(8, Y5)
	term4(16, Y6)
	term4(24, Y7)
	ADDQ $32, SI
	ADDQ $32, R12
	ADDQ $32, BX
	ADDQ $32, R13
	DECQ AX
	JNZ  quad

tail:
	MOVQ k+80(FP), AX
	ANDQ $3, AX
	JZ   store

single:
	VMOVSD      (BX), X4
	VMOVHPD     (BX)(R9*1), X4, X4
	VMOVSD      (BX)(R9*2), X5
	VMOVHPD     (R13), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	term4(0, Y4)
	ADDQ $8, SI
	ADDQ $8, R12
	ADDQ $8, BX
	ADDQ $8, R13
	DECQ AX
	JNZ  single

store:
	LEAQ    (R8)(R8*2), DX
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R8*1)
	VMOVUPD Y2, (DI)(R8*2)
	VMOVUPD Y3, (DI)(DX*1)
	ADDQ    $32, DI
	LEAQ    (R11)(R9*4), R11 // b row j+4
	DECQ    CX
	JNZ     block
	VZEROUPPER

done:
	RET
