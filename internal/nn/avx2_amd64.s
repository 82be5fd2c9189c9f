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

// split separates a row's eight columns, loaded into lo and hi, into
// the even (kx = 0) and odd (kx = 1) window columns of four outputs:
// the unpacks give (c0 c4 c2 c6) and (c1 c5 c3 c7), and VPERMPD $0xD8
// puts lanes 1 and 2 back in output order.
#define split(lo, hi, even, odd) \
	VUNPCKLPD hi, lo, even     \
	VUNPCKHPD hi, lo, odd      \
	VPERMPD   $0xD8, even, even \
	VPERMPD   $0xD8, odd, odd

// relu keeps v where v > 0 (GT_OQ against the +0 in Y7: false for NaN
// and −0) and leaves +0 elsewhere.
#define relu(v) \
	VCMPPD $0x1e, Y7, v, Y15 \
	VANDPD Y15, v, v

// fold replaces the running maximum Y0 and its offset Y1 by the
// candidate val at offset off where val > Y0 (strict: the first
// maximum wins).
#define fold(val, off) \
	VCMPPD    $0x1e, Y0, val, Y15 \
	VBLENDVPD Y15, val, Y0, Y0    \
	VBLENDVPD Y15, off, Y1, Y1

// pool4 pools the four windows whose rows split into Y0/Y4 (top) and
// Y5/Y6 (bottom): the ReLU of each, then the top-left value at offset
// 0 folded with the other three in the Go loop's order.
#define pool4 \
	relu(Y0)              \
	relu(Y4)              \
	relu(Y5)              \
	relu(Y6)              \
	VXORPD Y1, Y1, Y1     \
	fold(Y4, Y8)          \
	fold(Y5, Y9)          \
	fold(Y6, Y10)

// rpmask<> is four all-ones lanes then four zero lanes: the 32 bytes
// at rpmask<>+8(4−k) enable the first k lanes of a masked move.
DATA rpmask<>+0(SB)/8, $-1
DATA rpmask<>+8(SB)/8, $-1
DATA rpmask<>+16(SB)/8, $-1
DATA rpmask<>+24(SB)/8, $-1
DATA rpmask<>+32(SB)/8, $0
DATA rpmask<>+40(SB)/8, $0
DATA rpmask<>+48(SB)/8, $0
DATA rpmask<>+56(SB)/8, $0
DATA rpmask<>+64(SB)/8, $1
GLOBL rpmask<>(SB), RODATA|NOPTR, $72

// func reluPool2AVX2(y []float64, am []int, in []float64, pw int)
TEXT ·reluPool2AVX2(SB), NOSPLIT, $0-80
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ am_base+24(FP), R10
	MOVQ in_base+48(FP), SI
	MOVQ pw+72(FP), R9
	TESTQ CX, CX
	JZ   done
	LEAQ (SI)(R9*8), DX      // bottom window row
	LEAQ rpmask<>(SB), AX
	VXORPD       Y7, Y7, Y7  // +0
	VPBROADCASTQ 64(AX), Y8  // offset 1: top right
	VPBROADCASTQ pw+72(FP), Y9 // offset pw: bottom left
	VPADDQ       Y8, Y9, Y10 // offset pw+1: bottom right
	MOVQ CX, BX
	SHRQ $2, BX              // whole 4-output blocks
	JZ   tail

loop:
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	split(Y2, Y3, Y0, Y4)
	VMOVUPD (DX), Y2
	VMOVUPD 32(DX), Y3
	split(Y2, Y3, Y5, Y6)
	pool4
	VMOVUPD Y0, (DI)
	VMOVDQU Y1, (R10)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $32, DI
	ADDQ $32, R10
	DECQ BX
	JNZ  loop

tail:
	ANDQ $3, CX              // r outputs left, reading 2r columns per row
	JZ   end
	MOVQ $4, BX
	SUBQ CX, BX
	VMOVDQU (AX)(BX*8), Y12  // store mask: r lanes
	VMOVDQU (AX), Y13        // low load mask: 4 lanes
	VMOVDQU 32(AX), Y14      // high load mask: none
	CMPQ CX, $1
	JNE  three
	VMOVDQU 16(AX), Y13      // r = 1: 2 low lanes
	JMP  masked

three:
	CMPQ CX, $3
	JNE  masked
	VMOVDQU 16(AX), Y14      // r = 3: 2 high lanes

masked:
	VMASKMOVPD (SI), Y13, Y2
	VMASKMOVPD 32(SI), Y14, Y3
	split(Y2, Y3, Y0, Y4)
	VMASKMOVPD (DX), Y13, Y2
	VMASKMOVPD 32(DX), Y14, Y3
	split(Y2, Y3, Y5, Y6)
	pool4
	VMASKMOVPD Y0, Y12, (DI)
	VMASKMOVPD Y1, Y12, (R10)

end:
	VZEROUPPER

done:
	RET

// unpool4 turns Y0 (four pooled gradients), Y1 (their pooled outputs)
// and Y2 (their argmax offsets) into the two window rows they scatter
// to: the gradient becomes +0 + g where the output is > +0 (GT_OQ) and
// +0 elsewhere, each window position keeps it where the offset is its
// own (VPCMPEQQ against 0, 1, gw, gw+1) and +0 elsewhere, and the
// unpacks and VPERM2F128 interleave positions 0/1 into the top row's
// eight columns (Y13, Y14) and gw/gw+1 into the bottom row's (Y3, Y4).
#define unpool4 \
	VADDPD     Y7, Y0, Y0         \
	VCMPPD     $0x1e, Y7, Y1, Y1  \
	VANDPD     Y1, Y0, Y0         \
	VPCMPEQQ   Y7, Y2, Y3         \
	VPCMPEQQ   Y8, Y2, Y4         \
	VPCMPEQQ   Y9, Y2, Y5         \
	VPCMPEQQ   Y10, Y2, Y6        \
	VANDPD     Y0, Y3, Y3         \
	VANDPD     Y0, Y4, Y4         \
	VANDPD     Y0, Y5, Y5         \
	VANDPD     Y0, Y6, Y6         \
	VUNPCKLPD  Y4, Y3, Y11        \
	VUNPCKHPD  Y4, Y3, Y12        \
	VPERM2F128 $0x20, Y12, Y11, Y13 \
	VPERM2F128 $0x31, Y12, Y11, Y14 \
	VUNPCKLPD  Y6, Y5, Y11        \
	VUNPCKHPD  Y6, Y5, Y12        \
	VPERM2F128 $0x20, Y12, Y11, Y3 \
	VPERM2F128 $0x31, Y12, Y11, Y4

// func unpool2AVX2(w []float64, g, y []float64, am []int, gw int)
TEXT ·unpool2AVX2(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), DI
	MOVQ g_base+24(FP), SI
	MOVQ g_len+32(FP), CX
	MOVQ y_base+48(FP), R8
	MOVQ am_base+72(FP), R10
	MOVQ gw+96(FP), R9
	TESTQ CX, CX
	JZ   udone
	LEAQ (DI)(R9*8), DX      // bottom window row
	LEAQ rpmask<>(SB), AX
	VXORPD       Y7, Y7, Y7  // +0, and offset 0
	VPBROADCASTQ 64(AX), Y8  // offset 1
	VPBROADCASTQ gw+96(FP), Y9 // offset gw
	VPADDQ       Y8, Y9, Y10 // offset gw+1
	MOVQ CX, BX
	SHRQ $2, BX              // whole 4-window blocks
	JZ   utail

uloop:
	VMOVUPD (SI), Y0
	VMOVUPD (R8), Y1
	VMOVDQU (R10), Y2
	unpool4
	VMOVUPD Y13, (DI)
	VMOVUPD Y14, 32(DI)
	VMOVUPD Y3, (DX)
	VMOVUPD Y4, 32(DX)
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R10
	ADDQ $64, DI
	ADDQ $64, DX
	DECQ BX
	JNZ  uloop

utail:
	ANDQ $3, CX              // r windows left, writing 2r columns per row
	JZ   uend
	MOVQ $4, BX
	SUBQ CX, BX
	VMOVDQU (AX)(BX*8), Y15  // load mask: r lanes
	VMASKMOVPD (SI), Y15, Y0
	VMASKMOVPD (R8), Y15, Y1
	VMASKMOVPD (R10), Y15, Y2
	unpool4
	VMOVDQU (AX), Y11        // low store mask: 4 lanes
	VMOVDQU 32(AX), Y12      // high store mask: none
	CMPQ CX, $1
	JNE  uthree
	VMOVDQU 16(AX), Y11      // r = 1: 2 low lanes
	JMP  umasked

uthree:
	CMPQ CX, $3
	JNE  umasked
	VMOVDQU 16(AX), Y12      // r = 3: 2 high lanes

umasked:
	VMASKMOVPD Y13, Y11, (DI)
	VMASKMOVPD Y14, Y12, 32(DI)
	VMASKMOVPD Y3, Y11, (DX)
	VMASKMOVPD Y4, Y12, 32(DX)

uend:
	VZEROUPPER

udone:
	RET
