#include "textflag.h"

// AVX2 bodies of the kernels in kernels.go. Each handles len/4 blocks of
// four lanes (the Go wrapper passes a multiple of four and runs the tail;
// the scan takes blocks of sixteen), one VMULPD/VADDPD/VSUBPD per scalar
// operation of the Go loop, never a fused multiply-add. In Go syntax "VOP a, b, c" is c = b op a. The
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

// func separateAVX2(out, rk, ik, rj, ij []float64, c, s float64)
TEXT ·separateAVX2(SB), NOSPLIT, $0-136
	MOVQ out_base+0(FP), DX
	MOVQ rk_base+24(FP), SI
	MOVQ rk_len+32(FP), CX
	MOVQ ik_base+48(FP), DI
	MOVQ rj_base+72(FP), R8
	MOVQ ij_base+96(FP), R9
	VBROADCASTSD c+120(FP), Y0
	VBROADCASTSD s+128(FP), Y1
	SHLQ $3, CX
	XORQ AX, AX
	TESTQ CX, CX
	JZ   sepDone

sepLoop:
	VMOVUPD (SI)(AX*1), Y2 // rk
	VMOVUPD (DI)(AX*1), Y3 // ik
	VMOVUPD (R8)(AX*1), Y4 // rj
	VMOVUPD (R9)(AX*1), Y5 // ij
	VADDPD  Y4, Y2, Y6     // rk + rj
	VMULPD  Y0, Y6, Y6     // (rk + rj)·c
	VSUBPD  Y5, Y3, Y7     // ik − ij
	VMULPD  Y1, Y7, Y7     // (ik − ij)·s
	VADDPD  Y7, Y6, Y6     // even = (rk + rj)·c + (ik − ij)·s
	VADDPD  Y5, Y3, Y8     // ik + ij
	VMULPD  Y0, Y8, Y8     // (ik + ij)·c
	VSUBPD  Y4, Y2, Y9     // rk − rj
	VMULPD  Y1, Y9, Y9     // (rk − rj)·s
	VSUBPD  Y9, Y8, Y8     // odd = (ik + ij)·c − (rk − rj)·s
	VUNPCKLPD  Y8, Y6, Y10 // e0 o0 e2 o2
	VUNPCKHPD  Y8, Y6, Y11 // e1 o1 e3 o3
	VPERM2F128 $0x20, Y11, Y10, Y12 // e0 o0 e1 o1
	VPERM2F128 $0x31, Y11, Y10, Y13 // e2 o2 e3 o3
	VMOVUPD Y12, (DX)
	VMOVUPD Y13, 32(DX)
	ADDQ    $64, DX
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      sepLoop

sepDone:
	VZEROUPPER
	RET

// func scatterAxpyPairAVX2(ya, yb, tab []float64, shift uint, slot, locs []int, vals []float64)
//
// Location l adds v·tab[r·h:][:h/2] to ya and v·tab[r·h+h/2:][:h/2] to yb
// at slot[c]·h/2, r = l mod h, c = l div h, h = 1<<shift; h/2 is a
// multiple of four and the Go wrapper has checked every index.
TEXT ·scatterAxpyPairAVX2(SB), NOSPLIT, $0-152
	MOVQ ya_base+0(FP), R8
	MOVQ yb_base+24(FP), R9
	MOVQ tab_base+48(FP), R10
	MOVQ shift+72(FP), CX
	MOVQ slot_base+80(FP), R11
	MOVQ locs_base+104(FP), SI
	MOVQ locs_len+112(FP), R12
	MOVQ vals_base+128(FP), DI
	LEAQ (SI)(R12*8), R12 // end of locs
	MOVQ $4, R14
	SHLQ CX, R14          // h/2·8: bytes in half a row
	CMPQ SI, R12
	JAE  scatterDone

scatterLoc:
	MOVQ (SI), AX         // l
	MOVQ AX, DX
	SHRQ CX, DX           // c = l >> shift
	MOVQ DX, BX
	SHLQ CX, BX
	SUBQ BX, AX           // r = l − c<<shift
	SHLQ CX, AX
	SHLQ $3, AX
	ADDQ R10, AX          // &tab[r·h]
	MOVQ (R11)(DX*8), DX  // slot[c]
	IMULQ R14, DX         // slot[c]·h/2, in bytes
	LEAQ (R8)(DX*1), BX   // &ya[slot[c]·h/2]
	ADDQ R9, DX           // &yb[slot[c]·h/2]
	VBROADCASTSD (DI), Y0 // v
	MOVQ R14, R13

scatterLanes:
	VMOVUPD (AX), Y1
	VMULPD  Y0, Y1, Y1        // xa·v
	VADDPD  (BX), Y1, Y1      // xa·v + ya
	VMOVUPD Y1, (BX)
	VMOVUPD (AX)(R14*1), Y2
	VMULPD  Y0, Y2, Y2        // xb·v
	VADDPD  (DX), Y2, Y2      // xb·v + yb
	VMOVUPD Y2, (DX)
	ADDQ    $32, AX
	ADDQ    $32, BX
	ADDQ    $32, DX
	SUBQ    $32, R13
	JNZ     scatterLanes

	ADDQ $8, SI
	ADDQ $8, DI
	CMPQ SI, R12
	JB   scatterLoc

scatterDone:
	VZEROUPPER
	RET

// func subMulAVX2(v, q []float64, h float64)
TEXT ·subMulAVX2(SB), NOSPLIT, $0-56
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ q_base+24(FP), SI
	VBROADCASTSD h+48(FP), Y0
	SHLQ $3, CX
	XORQ AX, AX
	TESTQ CX, CX
	JZ   subMulDone

subMulLoop:
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  Y0, Y1, Y1     // q·h
	VMOVUPD (DI)(AX*1), Y2
	VSUBPD  Y1, Y2, Y2     // v − q·h
	VMOVUPD Y2, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      subMulLoop

subMulDone:
	VZEROUPPER
	RET

// func subMul4AVX2(v, q0, q1, q2, q3 []float64, h0, h1, h2, h3 float64)
TEXT ·subMul4AVX2(SB), NOSPLIT, $0-152
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ q0_base+24(FP), SI
	MOVQ q1_base+48(FP), R8
	MOVQ q2_base+72(FP), R9
	MOVQ q3_base+96(FP), R10
	VBROADCASTSD h0+120(FP), Y0
	VBROADCASTSD h1+128(FP), Y1
	VBROADCASTSD h2+136(FP), Y2
	VBROADCASTSD h3+144(FP), Y3
	SHLQ $3, CX
	XORQ AX, AX
	TESTQ CX, CX
	JZ   subMul4Done

subMul4Loop:
	VMOVUPD (SI)(AX*1), Y4
	VMULPD  Y0, Y4, Y4     // q0·h0
	VMOVUPD (R8)(AX*1), Y5
	VMULPD  Y1, Y5, Y5     // q1·h1
	VADDPD  Y5, Y4, Y4     // q0·h0 + q1·h1
	VMOVUPD (R9)(AX*1), Y6
	VMULPD  Y2, Y6, Y6     // q2·h2
	VADDPD  Y6, Y4, Y4     // s = q0·h0 + q1·h1 + q2·h2
	VMOVUPD (R10)(AX*1), Y7
	VMULPD  Y3, Y7, Y7     // q3·h3
	VADDPD  Y4, Y7, Y4     // q3·h3 + s
	VMOVUPD (DI)(AX*1), Y5
	VSUBPD  Y4, Y5, Y5     // v − (…)
	VMOVUPD Y5, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      subMul4Loop

subMul4Done:
	VZEROUPPER
	RET

// Lane indices of argmaxAbsAVX2's four accumulators: 0–3, 4–7, 8–11, 12–15.
DATA argmaxLanes<>+0(SB)/8, $0
DATA argmaxLanes<>+8(SB)/8, $1
DATA argmaxLanes<>+16(SB)/8, $2
DATA argmaxLanes<>+24(SB)/8, $3
DATA argmaxLanes<>+32(SB)/8, $4
DATA argmaxLanes<>+40(SB)/8, $5
DATA argmaxLanes<>+48(SB)/8, $6
DATA argmaxLanes<>+56(SB)/8, $7
DATA argmaxLanes<>+64(SB)/8, $8
DATA argmaxLanes<>+72(SB)/8, $9
DATA argmaxLanes<>+80(SB)/8, $10
DATA argmaxLanes<>+88(SB)/8, $11
DATA argmaxLanes<>+96(SB)/8, $12
DATA argmaxLanes<>+104(SB)/8, $13
DATA argmaxLanes<>+112(SB)/8, $14
DATA argmaxLanes<>+120(SB)/8, $15
GLOBL argmaxLanes<>(SB), RODATA|NOPTR, $128

// func argmaxAbsAVX2(a []float64, best *[4]float64, at *[4]int)
//
// Sixteen classes mod 16, four per register: lane k of accumulator q holds
// the largest |a[j]| over j ≡ 4q + k (mod 16) in (Y0+q) and its lowest
// index in (Y4+q), or (0, −1). c > b is the ordered compare, false on a
// NaN, as Go's >. The accumulators then merge pairwise by (value, lowest
// index) into the four classes mod 4, stored to best and at. len(a) is a
// multiple of 16.
TEXT ·argmaxAbsAVX2(SB), NOSPLIT, $0-40
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ $0x7fffffffffffffff, AX
	VMOVQ AX, X15
	VBROADCASTSD X15, Y15 // |·| mask
	MOVQ $16, AX
	VMOVQ AX, X14
	VPBROADCASTQ X14, Y14 // index step
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VPCMPEQQ Y4, Y4, Y4 // −1
	VPCMPEQQ Y5, Y5, Y5
	VPCMPEQQ Y6, Y6, Y6
	VPCMPEQQ Y7, Y7, Y7
	LEAQ argmaxLanes<>(SB), AX
	VMOVDQU 0(AX), Y8
	VMOVDQU 32(AX), Y9
	VMOVDQU 64(AX), Y10
	VMOVDQU 96(AX), Y11
	SHLQ $3, CX
	XORQ AX, AX
	TESTQ CX, CX
	JZ   argmaxMerge

argmaxLoop:
	VANDPD    (SI)(AX*1), Y15, Y12
	VCMPPD    $0x1e, Y0, Y12, Y13 // |a| > b
	VBLENDVPD Y13, Y12, Y0, Y0
	VBLENDVPD Y13, Y8, Y4, Y4
	VANDPD    32(SI)(AX*1), Y15, Y12
	VCMPPD    $0x1e, Y1, Y12, Y13
	VBLENDVPD Y13, Y12, Y1, Y1
	VBLENDVPD Y13, Y9, Y5, Y5
	VANDPD    64(SI)(AX*1), Y15, Y12
	VCMPPD    $0x1e, Y2, Y12, Y13
	VBLENDVPD Y13, Y12, Y2, Y2
	VBLENDVPD Y13, Y10, Y6, Y6
	VANDPD    96(SI)(AX*1), Y15, Y12
	VCMPPD    $0x1e, Y3, Y12, Y13
	VBLENDVPD Y13, Y12, Y3, Y3
	VBLENDVPD Y13, Y11, Y7, Y7
	VPADDQ    Y14, Y8, Y8
	VPADDQ    Y14, Y9, Y9
	VPADDQ    Y14, Y10, Y10
	VPADDQ    Y14, Y11, Y11
	ADDQ      $128, AX
	CMPQ      AX, CX
	JB        argmaxLoop

argmaxMerge:
	// (Y0, Y4) ← (Y1, Y5) where b1 > b0, or b1 = b0 and j1 < j0.
	VCMPPD    $0x1e, Y0, Y1, Y12
	VCMPPD    $0x00, Y0, Y1, Y13
	VPCMPGTQ  Y5, Y4, Y14
	VANDPD    Y14, Y13, Y13
	VORPD     Y13, Y12, Y12
	VBLENDVPD Y12, Y1, Y0, Y0
	VBLENDVPD Y12, Y5, Y4, Y4
	// (Y2, Y6) ← (Y3, Y7) by the same rule.
	VCMPPD    $0x1e, Y2, Y3, Y12
	VCMPPD    $0x00, Y2, Y3, Y13
	VPCMPGTQ  Y7, Y6, Y14
	VANDPD    Y14, Y13, Y13
	VORPD     Y13, Y12, Y12
	VBLENDVPD Y12, Y3, Y2, Y2
	VBLENDVPD Y12, Y7, Y6, Y6
	// (Y0, Y4) ← (Y2, Y6).
	VCMPPD    $0x1e, Y0, Y2, Y12
	VCMPPD    $0x00, Y0, Y2, Y13
	VPCMPGTQ  Y6, Y4, Y14
	VANDPD    Y14, Y13, Y13
	VORPD     Y13, Y12, Y12
	VBLENDVPD Y12, Y2, Y0, Y0
	VBLENDVPD Y12, Y6, Y4, Y4
	MOVQ      best+24(FP), DI
	VMOVUPD   Y0, (DI)
	MOVQ      at+32(FP), DI
	VMOVDQU   Y4, (DI)
	VZEROUPPER
	RET
