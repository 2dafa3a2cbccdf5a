#include "textflag.h"

// func ntKern4x8(k int, alpha float64, a *float64, lda int, p *float64, c *float64, ldc int)
//
// C(i,j) += alpha·Σ_l A(i,l)·P(l,j) for a 4×8 tile: A is four rows at
// stride lda, P the l-major k×8 panel packB wrote, C four rows of eight at
// stride ldc. Row i of the tile accumulates in Y(2i) (columns 0–3) and
// Y(2i+1) (columns 4–7), starting from +0. Each product is rounded by
// VMULPD and added by VADDPD, never fused, in ascending l, and alpha is
// applied once at the end, so every lane computes exactly the scalar
// s := 0; s += a·b; c += alpha·s sequence of ntPair and dot.
TEXT ·ntKern4x8(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R8
	SHLQ $3, R8
	MOVQ p+32(FP), DI
	MOVQ c+40(FP), DX
	MOVQ ldc+48(FP), R9
	SHLQ $3, R9
	LEAQ (SI)(R8*2), R10

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	TESTQ CX, CX
	JEQ   scale

loop:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9

	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y1, Y1

	VBROADCASTSD (SI)(R8*1), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y3, Y3

	VBROADCASTSD (R10), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y4, Y4
	VADDPD       Y12, Y5, Y5

	VBROADCASTSD (R10)(R8*1), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y6, Y6
	VADDPD       Y12, Y7, Y7

	ADDQ $8, SI
	ADDQ $8, R10
	ADDQ $64, DI
	DECQ CX
	JNZ  loop

scale:
	VBROADCASTSD alpha+8(FP), Y10

	VMULPD  Y0, Y10, Y0
	VMULPD  Y1, Y10, Y1
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VADDPD  Y0, Y8, Y8
	VADDPD  Y1, Y9, Y9
	VMOVUPD Y8, (DX)
	VMOVUPD Y9, 32(DX)
	ADDQ    R9, DX

	VMULPD  Y2, Y10, Y2
	VMULPD  Y3, Y10, Y3
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VADDPD  Y2, Y8, Y8
	VADDPD  Y3, Y9, Y9
	VMOVUPD Y8, (DX)
	VMOVUPD Y9, 32(DX)
	ADDQ    R9, DX

	VMULPD  Y4, Y10, Y4
	VMULPD  Y5, Y10, Y5
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VADDPD  Y4, Y8, Y8
	VADDPD  Y5, Y9, Y9
	VMOVUPD Y8, (DX)
	VMOVUPD Y9, 32(DX)
	ADDQ    R9, DX

	VMULPD  Y6, Y10, Y6
	VMULPD  Y7, Y10, Y7
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VADDPD  Y6, Y8, Y8
	VADDPD  Y7, Y9, Y9
	VMOVUPD Y8, (DX)
	VMOVUPD Y9, 32(DX)

	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
