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

// func gemmNT4AVX2(dst []float64, ldd int, a []float64, lda, astride int, b []float64, boff []int, segs, seg, bstride int)
TEXT ·gemmNT4AVX2(SB), NOSPLIT, $0-144
	MOVQ dst_base+0(FP), DI  // dst row 0, column j
	MOVQ ldd+24(FP), R8
	SHLQ $3, R8              // dst row stride in bytes
	MOVQ lda+56(FP), R9
	SHLQ $3, R9              // a row stride in bytes
	MOVQ boff_base+96(FP), R14 // offset of b row j
	MOVQ boff_len+104(FP), CX
	SHRQ $2, CX              // 4-column blocks
	JZ   done

block:
	LEAQ    (R8)(R8*2), DX
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R8*1), Y1
	VMOVUPD (DI)(R8*2), Y2
	VMOVUPD (DI)(DX*1), Y3
	MOVQ    b_base+72(FP), R10
	MOVQ    (R14), AX
	LEAQ    (R10)(AX*8), BX  // b row j
	MOVQ    8(R14), AX
	LEAQ    (R10)(AX*8), R11 // b row j+1
	MOVQ    16(R14), AX
	LEAQ    (R10)(AX*8), R13 // b row j+2
	MOVQ    24(R14), AX
	LEAQ    (R10)(AX*8), DX  // b row j+3
	MOVQ    a_base+32(FP), SI
	LEAQ    (R9)(R9*2), AX
	LEAQ    (SI)(AX*1), R12  // a row 3
	MOVQ    segs+120(FP), R10 // segment countdown
	TESTQ   R10, R10
	JZ      store

segment:
	MOVQ seg+128(FP), AX
	SHRQ $2, AX
	JZ   tail

quad:
	VMOVUPD (BX), Y4
	VMOVUPD (R11), Y5
	VMOVUPD (R13), Y6
	VMOVUPD (DX), Y7
	transpose4
	term4(0, Y4)
	term4(8, Y5)
	term4(16, Y6)
	term4(24, Y7)
	ADDQ $32, SI
	ADDQ $32, R12
	ADDQ $32, BX
	ADDQ $32, R11
	ADDQ $32, R13
	ADDQ $32, DX
	DECQ AX
	JNZ  quad

tail:
	MOVQ seg+128(FP), AX
	ANDQ $3, AX
	JZ   next

single:
	VMOVSD      (BX), X4
	VMOVHPD     (R11), X4, X4
	VMOVSD      (R13), X5
	VMOVHPD     (DX), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	term4(0, Y4)
	ADDQ $8, SI
	ADDQ $8, R12
	ADDQ $8, BX
	ADDQ $8, R11
	ADDQ $8, R13
	ADDQ $8, DX
	DECQ AX
	JNZ  single

next:
	MOVQ bstride+136(FP), AX // b rows jump to the next segment
	SUBQ seg+128(FP), AX
	SHLQ $3, AX
	ADDQ AX, BX
	ADDQ AX, R11
	ADDQ AX, R13
	ADDQ AX, DX
	MOVQ astride+64(FP), AX  // a rows jump to the next segment
	SUBQ seg+128(FP), AX
	SHLQ $3, AX
	ADDQ AX, SI
	ADDQ AX, R12
	DECQ R10
	JNZ  segment

store:
	LEAQ    (R8)(R8*2), DX
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R8*1)
	VMOVUPD Y2, (DI)(R8*2)
	VMOVUPD Y3, (DI)(DX*1)
	ADDQ    $32, DI
	ADDQ    $32, R14
	DECQ    CX
	JNZ     block
	VZEROUPPER

done:
	RET

// The gemm4AVX2 body. Registers: DI dst at the current column block,
// R8 the doff table, SI a row 0 at the current k, R9 the a row stride
// and R10 the a k stride in bytes, R11 b at the current column block,
// R14 the boff entry of the current k, R13 the k countdown, CX the
// columns left; AX, BX and DX are scratch. The accumulator of row r
// is Y(2r) (and Y(2r+1) for the second four columns of an 8-column
// block).

// rowoff loads doff[r] into AX.
#define rowoff(r) MOVQ (r*8)(R8), AX

// skipzero jumps to lbl when the a element at addr is ±0: doubling the
// bits drops the sign and leaves zero only for a zero.
#define skipzero(addr, lbl) \
	MOVQ addr, AX \
	ADDQ AX, AX   \
	JZ   lbl

// term8 adds a[r][k]·b[k][j..j+7] (b columns in Y8, Y9) to row r's two
// accumulators.
#define term8(addr, lo, hi) \
	VBROADCASTSD addr, Y10 \
	VMULPD       Y8, Y10, Y11 \
	VMULPD       Y9, Y10, Y10 \
	VADDPD       Y11, lo, lo  \
	VADDPD       Y10, hi, hi

// term4v adds a[r][k]·b[k][j..j+3] (in Y8) to row r's accumulator.
#define term4v(addr, acc) \
	VBROADCASTSD addr, Y10 \
	VMULPD       Y8, Y10, Y10 \
	VADDPD       Y10, acc, acc

// func gemm4AVX2(dst []float64, doff []int, a []float64, lda, ak int, b []float64, boff []int, c0 []float64, nv int, sum bool)
TEXT ·gemm4AVX2(SB), NOSPLIT, $0-169
	MOVQ dst_base+0(FP), DI
	MOVQ doff_base+24(FP), R8
	MOVQ lda+72(FP), R9
	SHLQ $3, R9
	MOVQ ak+80(FP), R10
	SHLQ $3, R10
	MOVQ b_base+88(FP), R11
	MOVQ nv+160(FP), CX

blk8:
	CMPQ    CX, $8
	JLT     blk4
	MOVQ    c0_len+144(FP), AX
	TESTQ   AX, AX
	JNZ     bias8
	MOVBLZX sum+168(FP), AX
	TESTQ   AX, AX
	JNZ     zero8
	rowoff(0)
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	rowoff(1)
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD 32(DI)(AX*8), Y3
	rowoff(2)
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	rowoff(3)
	VMOVUPD (DI)(AX*8), Y6
	VMOVUPD 32(DI)(AX*8), Y7
	JMP     k8

bias8:
	MOVQ         c0_base+136(FP), AX
	VBROADCASTSD (AX), Y0
	VMOVAPD      Y0, Y1
	VBROADCASTSD 8(AX), Y2
	VMOVAPD      Y2, Y3
	VBROADCASTSD 16(AX), Y4
	VMOVAPD      Y4, Y5
	VBROADCASTSD 24(AX), Y6
	VMOVAPD      Y6, Y7
	JMP          k8

zero8:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

k8:
	MOVQ  a_base+48(FP), SI
	MOVQ  boff_base+112(FP), R14
	MOVQ  boff_len+120(FP), R13
	TESTQ R13, R13
	JZ    end8

loop8:
	MOVQ    (R14), AX
	LEAQ    (R11)(AX*8), BX
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	skipzero((SI), r8a)
	term8((SI), Y0, Y1)

r8a:
	skipzero((SI)(R9*1), r8b)
	term8((SI)(R9*1), Y2, Y3)

r8b:
	skipzero((SI)(R9*2), r8c)
	term8((SI)(R9*2), Y4, Y5)

r8c:
	LEAQ (SI)(R9*2), DX
	skipzero((DX)(R9*1), r8d)
	term8((DX)(R9*1), Y6, Y7)

r8d:
	ADDQ R10, SI
	ADDQ $8, R14
	DECQ R13
	JNZ  loop8

end8:
	MOVBLZX sum+168(FP), DX
	TESTQ   DX, DX
	JZ      store8
	rowoff(0)
	VADDPD  (DI)(AX*8), Y0, Y0
	VADDPD  32(DI)(AX*8), Y1, Y1
	rowoff(1)
	VADDPD  (DI)(AX*8), Y2, Y2
	VADDPD  32(DI)(AX*8), Y3, Y3
	rowoff(2)
	VADDPD  (DI)(AX*8), Y4, Y4
	VADDPD  32(DI)(AX*8), Y5, Y5
	rowoff(3)
	VADDPD  (DI)(AX*8), Y6, Y6
	VADDPD  32(DI)(AX*8), Y7, Y7

store8:
	rowoff(0)
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	rowoff(1)
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y3, 32(DI)(AX*8)
	rowoff(2)
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	rowoff(3)
	VMOVUPD Y6, (DI)(AX*8)
	VMOVUPD Y7, 32(DI)(AX*8)
	ADDQ    $64, DI
	ADDQ    $64, R11
	SUBQ    $8, CX
	JMP     blk8

blk4:
	TESTQ   CX, CX
	JZ      done4
	MOVQ    c0_len+144(FP), AX
	TESTQ   AX, AX
	JNZ     bias4
	MOVBLZX sum+168(FP), AX
	TESTQ   AX, AX
	JNZ     zero4
	rowoff(0)
	VMOVUPD (DI)(AX*8), Y0
	rowoff(1)
	VMOVUPD (DI)(AX*8), Y2
	rowoff(2)
	VMOVUPD (DI)(AX*8), Y4
	rowoff(3)
	VMOVUPD (DI)(AX*8), Y6
	JMP     k4

bias4:
	MOVQ         c0_base+136(FP), AX
	VBROADCASTSD (AX), Y0
	VBROADCASTSD 8(AX), Y2
	VBROADCASTSD 16(AX), Y4
	VBROADCASTSD 24(AX), Y6
	JMP          k4

zero4:
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	VXORPD Y4, Y4, Y4
	VXORPD Y6, Y6, Y6

k4:
	MOVQ  a_base+48(FP), SI
	MOVQ  boff_base+112(FP), R14
	MOVQ  boff_len+120(FP), R13
	TESTQ R13, R13
	JZ    end4

loop4:
	MOVQ    (R14), AX
	VMOVUPD (R11)(AX*8), Y8
	skipzero((SI), r4a)
	term4v((SI), Y0)

r4a:
	skipzero((SI)(R9*1), r4b)
	term4v((SI)(R9*1), Y2)

r4b:
	skipzero((SI)(R9*2), r4c)
	term4v((SI)(R9*2), Y4)

r4c:
	LEAQ (SI)(R9*2), DX
	skipzero((DX)(R9*1), r4d)
	term4v((DX)(R9*1), Y6)

r4d:
	ADDQ R10, SI
	ADDQ $8, R14
	DECQ R13
	JNZ  loop4

end4:
	MOVBLZX sum+168(FP), DX
	TESTQ   DX, DX
	JZ      store4
	rowoff(0)
	VADDPD  (DI)(AX*8), Y0, Y0
	rowoff(1)
	VADDPD  (DI)(AX*8), Y2, Y2
	rowoff(2)
	VADDPD  (DI)(AX*8), Y4, Y4
	rowoff(3)
	VADDPD  (DI)(AX*8), Y6, Y6

store4:
	rowoff(0)
	VMOVUPD Y0, (DI)(AX*8)
	rowoff(1)
	VMOVUPD Y2, (DI)(AX*8)
	rowoff(2)
	VMOVUPD Y4, (DI)(AX*8)
	rowoff(3)
	VMOVUPD Y6, (DI)(AX*8)

done4:
	VZEROUPPER
	RET
