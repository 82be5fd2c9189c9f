#include "textflag.h"

// spread<>[m] places bit i of the 4-bit lane mask m at bit 2i.
DATA spread<>+0(SB)/8, $0x1514111005040100
DATA spread<>+8(SB)/8, $0x5554515045444140
GLOBL spread<>(SB), RODATA|NOPTR, $16

// func compressAVX2(packed []byte, g []float64, delta, negDelta float64)
TEXT ·compressAVX2(SB), NOSPLIT, $0-64
	MOVQ packed_base+0(FP), DI
	MOVQ g_base+24(FP), SI
	MOVQ g_len+32(FP), CX
	SHRQ $3, CX
	JZ   done
	VBROADCASTSD delta+48(FP), Y0
	VBROADCASTSD negDelta+56(FP), Y1
	LEAQ spread<>(SB), R8

loop:
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	VCMPPD  $0x1e, Y0, Y2, Y4 // GT_OQ: g[0:4] > δ
	VCMPPD  $0x11, Y1, Y2, Y5 // LT_OQ: g[0:4] < −δ
	VCMPPD  $0x1e, Y0, Y3, Y6
	VCMPPD  $0x11, Y1, Y3, Y7
	VMOVMSKPD Y4, AX
	VMOVMSKPD Y5, BX
	VMOVMSKPD Y6, DX
	VMOVMSKPD Y7, R9
	MOVBLZX (R8)(AX*1), AX
	MOVBLZX (R8)(BX*1), BX
	MOVBLZX (R8)(DX*1), DX
	MOVBLZX (R8)(R9*1), R9
	SHLL $1, BX              // codeNeg is the high bit of each slot
	SHLL $1, R9
	ORL  BX, AX              // byte 0: elements 0..3
	ORL  R9, DX              // byte 1: elements 4..7
	SHLL $8, DX
	ORL  DX, AX
	MOVW AX, (DI)
	ADDQ $64, SI
	ADDQ $2, DI
	DECQ CX
	JNZ  loop
	VZEROUPPER

done:
	RET

// func accumulateAVX2(dst []float64, packed []byte, w float64)
TEXT ·accumulateAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ packed_base+24(FP), SI
	MOVQ packed_len+32(FP), CX
	TESTQ CX, CX
	JZ   done
	VBROADCASTSD w+48(FP), Y0
	LEAQ ·denseLUT(SB), R8

loop:
	MOVBLZX (SI), AX
	SHLQ $5, AX              // 32-byte table rows
	VMOVUPD (R8)(AX*1), Y1
	VMULPD  Y0, Y1, Y1       // row·w
	VADDPD  (DI), Y1, Y1     // + dst
	VMOVUPD Y1, (DI)
	INCQ SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop
	VZEROUPPER

done:
	RET
