#include "textflag.h"

// AVX2 bodies of the kernels in kernels.go. Each handles len/4 blocks of
// four lanes (the Go wrapper passes a multiple of four and runs the tail),
// one VMULPD/VADDPD/VSUBPD per scalar operation of the Go loop, never a
// fused multiply-add. In Go syntax "VOP a, b, c" is c = b op a. The
// commutative operations keep the operand order of the compiled Go loop,
// noted in the comments as "b op a", so that even the payload of a NaN
// made from two NaNs (b's) matches a plain build of the Go loop.

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() (a, d uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, a+0(FP)
	MOVL DX, d+4(FP)
	RET

// func axpyPairAVX2(v float64, xa, xb, ya, yb []float64)
TEXT ·axpyPairAVX2(SB), NOSPLIT, $0-104
	VBROADCASTSD v+0(FP), Y0
	MOVQ xa_base+8(FP), SI
	MOVQ xb_base+32(FP), DI
	MOVQ ya_base+56(FP), R8
	MOVQ ya_len+64(FP), CX
	MOVQ yb_base+80(FP), R9
	SHLQ $3, CX
	XORQ AX, AX
	TESTQ CX, CX
	JZ   axpyDone

axpyLoop:
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  Y0, Y1, Y1        // xa·v
	VADDPD  (R8)(AX*1), Y1, Y1 // xa·v + ya
	VMOVUPD Y1, (R8)(AX*1)
	VMOVUPD (DI)(AX*1), Y2
	VMULPD  Y0, Y2, Y2        // xb·v
	VADDPD  (R9)(AX*1), Y2, Y2 // xb·v + yb
	VMOVUPD Y2, (R9)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      axpyLoop

axpyDone:
	VZEROUPPER
	RET

// func butterflyAVX2(rk, ik, rj, ij []float64, wre, wim float64)
TEXT ·butterflyAVX2(SB), NOSPLIT, $0-112
	MOVQ rk_base+0(FP), SI
	MOVQ rk_len+8(FP), CX
	MOVQ ik_base+24(FP), DI
	MOVQ rj_base+48(FP), R8
	MOVQ ij_base+72(FP), R9
	VBROADCASTSD wre+96(FP), Y0
	VBROADCASTSD wim+104(FP), Y1
	SHLQ $3, CX
	XORQ AX, AX
	TESTQ CX, CX
	JZ   bflyDone

bflyLoop:
	VMOVUPD (R8)(AX*1), Y2 // rj
	VMOVUPD (R9)(AX*1), Y3 // ij
	VMULPD  Y0, Y2, Y4     // rj·wre
	VMULPD  Y1, Y3, Y5     // ij·wim
	VSUBPD  Y5, Y4, Y4     // tre = rj·wre − ij·wim
	VMULPD  Y1, Y2, Y6     // rj·wim
	VMULPD  Y0, Y3, Y7     // ij·wre
	VADDPD  Y7, Y6, Y6     // tim = rj·wim + ij·wre
	VMOVUPD (SI)(AX*1), Y2 // rk
	VMOVUPD (DI)(AX*1), Y3 // ik
	VSUBPD  Y4, Y2, Y5     // rk − tre
	VMOVUPD Y5, (R8)(AX*1)
	VSUBPD  Y6, Y3, Y7     // ik − tim
	VMOVUPD Y7, (R9)(AX*1)
	VADDPD  Y2, Y4, Y4     // tre + rk
	VMOVUPD Y4, (SI)(AX*1)
	VADDPD  Y3, Y6, Y6     // tim + ik
	VMOVUPD Y6, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      bflyLoop

bflyDone:
	VZEROUPPER
	RET

// func radix4AVX2(r0, i0, r1, i1, r2, i2, r3, i3 []float64, sign float64)
TEXT ·radix4AVX2(SB), NOSPLIT, $0-200
	MOVQ r0_base+0(FP), SI
	MOVQ r0_len+8(FP), CX
	MOVQ i0_base+24(FP), DI
	MOVQ r1_base+48(FP), R8
	MOVQ i1_base+72(FP), R9
	MOVQ r2_base+96(FP), R10
	MOVQ i2_base+120(FP), R11
	MOVQ r3_base+144(FP), R12
	MOVQ i3_base+168(FP), R13
	VBROADCASTSD sign+192(FP), Y12
	MOVQ $0x8000000000000000, AX
	VMOVQ AX, X13
	VBROADCASTSD X13, Y13
	VXORPD Y12, Y13, Y13 // −sign, the sign bit flipped as Go's negation does
	SHLQ $3, CX
	XORQ AX, AX
	TESTQ CX, CX
	JZ   radix4Done

radix4Loop:
	VMOVUPD (SI)(AX*1), Y0  // r0
	VMOVUPD (R8)(AX*1), Y1  // r1
	VMOVUPD (DI)(AX*1), Y2  // i0
	VMOVUPD (R9)(AX*1), Y3  // i1
	VADDPD  Y0, Y1, Y4      // ar = r1 + r0
	VSUBPD  Y1, Y0, Y5      // br = r0 − r1
	VADDPD  Y2, Y3, Y6      // ai = i1 + i0
	VSUBPD  Y3, Y2, Y7      // bi = i0 − i1
	VMOVUPD (R10)(AX*1), Y0 // r2
	VMOVUPD (R12)(AX*1), Y1 // r3
	VMOVUPD (R11)(AX*1), Y2 // i2
	VMOVUPD (R13)(AX*1), Y3 // i3
	VADDPD  Y0, Y1, Y8      // cr = r3 + r2
	VADDPD  Y2, Y3, Y9      // ci = i3 + i2
	VSUBPD  Y3, Y2, Y10     // i2 − i3
	VMULPD  Y10, Y13, Y10   // dr = −sign·(i2 − i3)
	VSUBPD  Y1, Y0, Y11     // r2 − r3
	VMULPD  Y12, Y11, Y11   // di = (r2 − r3)·sign
	VADDPD  Y4, Y8, Y0      // cr + ar
	VMOVUPD Y0, (SI)(AX*1)
	VADDPD  Y6, Y9, Y1      // ci + ai
	VMOVUPD Y1, (DI)(AX*1)
	VADDPD  Y5, Y10, Y2     // dr + br
	VMOVUPD Y2, (R8)(AX*1)
	VADDPD  Y7, Y11, Y3     // di + bi
	VMOVUPD Y3, (R9)(AX*1)
	VSUBPD  Y8, Y4, Y0      // ar − cr
	VMOVUPD Y0, (R10)(AX*1)
	VSUBPD  Y9, Y6, Y1      // ai − ci
	VMOVUPD Y1, (R11)(AX*1)
	VSUBPD  Y10, Y5, Y2     // br − dr
	VMOVUPD Y2, (R12)(AX*1)
	VSUBPD  Y11, Y7, Y3     // bi − di
	VMOVUPD Y3, (R13)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      radix4Loop

radix4Done:
	VZEROUPPER
	RET
