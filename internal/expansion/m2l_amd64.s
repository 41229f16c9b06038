//go:build amd64

#include "textflag.h"

// Packed M2L bodies: every stage of m2lApply and m2lApply4, four float64
// lanes per ymm register. A lane owns one output and adds that output's
// terms in the scalar stage's order with a separate VMULPD and VADDPD (no
// FMA), from +0: per lane the IEEE operations of the scalar stage, so the
// results are == by construction.
//
// At width 1 the lanes of the rotation and of the axial stage are four
// consecutive outputs (rows m' of a degree; degrees j of an order): the
// matrix entries come as one vector load from a lane-major table
// (halfStackInto, laneRowInto) and the input coefficient is broadcast. At
// width 4 the lanes are the four columns of one output: the input is the
// vector load and the matrix entry the broadcast, from the same tables;
// each column has its own phases and radial powers, laid out lane-major
// (colGeom), so those are vector loads too.
//
// Plan 9 operand order: VMULPD b, a, d is d = a * b; VADDPD b, a, d is
// d = a + b; VSUBPD b, a, d is d = a - b.

// func rotHalfAVX2(p int, outRe, outIm, inRe, inIm, half *float64, orderMajor int)
//
// AX = n   BX = degree n's block of half   CX = bytes from a column's P to
// its Q entries (lanePad(n+1) floats)   DX = column stride   SI, DI = in_n^0
// R8, R9 = out_n^0   R10 = byte offset of the row group   Y0, Y1 = sums
// 0(SP) = bytes from in_n^0 to in_n^1, 8(SP) = its change per m,
// 16(SP) = bytes from in_n^0 to in_{n+1}^0, 24(SP) = its change per n.
TEXT ·rotHalfAVX2(SB), NOSPLIT, $32-56
	MOVQ outRe+8(FP), R8
	MOVQ outIm+16(FP), R9
	MOVQ inRe+24(FP), SI
	MOVQ inIm+32(FP), DI
	MOVQ half+40(FP), BX
	// Degree-major input: in_n^{m+1} is the next float, degree n+1 starts
	// n+1 floats on.
	MOVQ $8, 0(SP)
	MOVQ $0, 8(SP)
	MOVQ $8, 16(SP)
	MOVQ $8, 24(SP)
	CMPQ orderMajor+48(FP), $0
	JEQ  rstart
	// Order-major input: in_n^{m+1} is p-m floats on, degree n+1 starts
	// one float on.
	MOVQ p+0(FP), AX
	SHLQ $3, AX
	MOVQ AX, 0(SP)
	MOVQ $-8, 8(SP)
	MOVQ $0, 24(SP)
rstart:
	XORQ AX, AX

rdegree:
	LEAQ 4(AX), CX
	ANDQ $-4, CX
	SHLQ $3, CX
	LEAQ (CX)(CX*1), DX
	XORQ R10, R10

rgroup:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	LEAQ (BX)(R10*1), R11              // P entries of column m, this row group
	MOVQ SI, R12
	MOVQ DI, R13
	MOVQ 0(SP), R14
	LEAQ 1(AX), R15                    // m = 0..n

rterm:
	VBROADCASTSD (R12), Y2
	VBROADCASTSD (R13), Y3
	VMULPD  (R11), Y2, Y2              // P[m'][m] * Re in_n^m
	VMULPD  (R11)(CX*1), Y3, Y3        // Q[m'][m] * Im in_n^m
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	ADDQ DX, R11
	ADDQ R14, R12
	ADDQ R14, R13
	ADDQ 8(SP), R14
	DECQ R15
	JNZ  rterm

	VMOVUPD Y0, (R8)(R10*1)
	VMOVUPD Y1, (R9)(R10*1)
	ADDQ $32, R10
	CMPQ R10, CX
	JLT  rgroup

	LEAQ 1(AX), R15
	IMULQ DX, R15
	ADDQ R15, BX
	LEAQ 8(R8)(AX*8), R8
	LEAQ 8(R9)(AX*8), R9
	MOVQ 16(SP), R15
	ADDQ R15, SI
	ADDQ R15, DI
	ADDQ 24(SP), R15
	MOVQ R15, 16(SP)
	INCQ AX
	CMPQ AX, p+0(FP)
	JLE  rdegree

	VZEROUPPER
	RET

// func axialAVX2(p int, outRe, outIm, inRe, inIm, axbL, rpow *float64)
//
// AX = k   BX = next group of axbL (consumed in order)   CX = p-k+1, the
// terms and the degrees of order k   DX = byte offset of the degree group
// SI, DI = in_k^k   R8, R9 = order k's run of out   R10 = &rpow[2k]
// Y0, Y1 = sums   Y14 = sign bits   Y15 = sign bits if k is odd, else 0.
TEXT ·axialAVX2(SB), NOSPLIT, $0-56
	MOVQ p+0(FP), CX
	INCQ CX
	MOVQ outRe+8(FP), R8
	MOVQ outIm+16(FP), R9
	MOVQ inRe+24(FP), SI
	MOVQ inIm+32(FP), DI
	MOVQ axbL+40(FP), BX
	MOVQ rpow+48(FP), R10
	VPCMPEQD Y14, Y14, Y14
	VPSLLQ  $63, Y14, Y14
	VXORPD  Y15, Y15, Y15
	XORQ AX, AX

aorder:
	XORQ DX, DX

agroup:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ SI, R11
	MOVQ DI, R12
	LEAQ 8(AX*8), R13                  // in_{n+1}^k is n+1 floats on; n = k first
	LEAQ (R10)(DX*1), R14              // rpow[j+k+i], j = k+4g the group's first
	MOVQ CX, R15                       // n = k..p

aterm:
	VMOVUPD (BX), Y2
	VMULPD  (R14), Y2, Y2              // c = ab * rpow
	VBROADCASTSD (R11), Y3
	VBROADCASTSD (R12), Y4
	VMULPD  Y3, Y2, Y3                 // c * Re in_n^k
	VMULPD  Y4, Y2, Y4
	VADDPD  Y3, Y0, Y0
	VADDPD  Y4, Y1, Y1
	ADDQ $32, BX
	ADDQ $8, R14
	ADDQ R13, R11
	ADDQ R13, R12
	ADDQ $8, R13
	DECQ R15
	JNZ  aterm

	VXORPD  Y15, Y0, Y0                // the (-1)^k of the forward D
	VXORPD  Y15, Y1, Y1
	VMOVUPD Y0, (R8)(DX*1)
	VMOVUPD Y1, (R9)(DX*1)
	ADDQ $32, DX
	LEAQ (CX*8), R15
	CMPQ DX, R15
	JLT  agroup

	LEAQ (R8)(CX*8), R8
	LEAQ (R9)(CX*8), R9
	LEAQ 16(SI)(AX*8), SI              // Idx(k+1,k+1) - Idx(k,k) = k+2
	LEAQ 16(DI)(AX*8), DI
	ADDQ $16, R10
	VXORPD  Y14, Y15, Y15
	INCQ AX
	DECQ CX
	JNZ  aorder

	VZEROUPPER
	RET

// func rotHalf4AVX2(p int, outRe, outIm, inRe, inIm *[4]float64, half *float64, orderMajor int)
//
// rotHalfAVX2 with one output row m' per pass (R10 = 8m') and 32-byte
// coefficients: the P/Q entry is broadcast, the input loaded.
TEXT ·rotHalf4AVX2(SB), NOSPLIT, $32-56
	MOVQ outRe+8(FP), R8
	MOVQ outIm+16(FP), R9
	MOVQ inRe+24(FP), SI
	MOVQ inIm+32(FP), DI
	MOVQ half+40(FP), BX
	MOVQ $32, 0(SP)
	MOVQ $0, 8(SP)
	MOVQ $32, 16(SP)
	MOVQ $32, 24(SP)
	CMPQ orderMajor+48(FP), $0
	JEQ  r4start
	MOVQ p+0(FP), AX
	SHLQ $5, AX
	MOVQ AX, 0(SP)
	MOVQ $-32, 8(SP)
	MOVQ $0, 24(SP)
r4start:
	XORQ AX, AX

r4degree:
	LEAQ 4(AX), CX
	ANDQ $-4, CX
	SHLQ $3, CX
	LEAQ (CX)(CX*1), DX
	XORQ R10, R10

r4row:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	LEAQ (BX)(R10*1), R11
	MOVQ SI, R12
	MOVQ DI, R13
	MOVQ 0(SP), R14
	LEAQ 1(AX), R15

r4term:
	VBROADCASTSD (R11), Y2
	VBROADCASTSD (R11)(CX*1), Y3
	VMULPD  (R12), Y2, Y2
	VMULPD  (R13), Y3, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	ADDQ DX, R11
	ADDQ R14, R12
	ADDQ R14, R13
	ADDQ 8(SP), R14
	DECQ R15
	JNZ  r4term

	VMOVUPD Y0, (R8)(R10*4)
	VMOVUPD Y1, (R9)(R10*4)
	ADDQ $8, R10
	LEAQ 8(AX*8), R15
	CMPQ R10, R15
	JLT  r4row

	LEAQ 1(AX), R15
	IMULQ DX, R15
	ADDQ R15, BX
	LEAQ 1(AX), R15
	SHLQ $5, R15
	ADDQ R15, R8
	ADDQ R15, R9
	MOVQ 16(SP), R15
	ADDQ R15, SI
	ADDQ R15, DI
	ADDQ 24(SP), R15
	MOVQ R15, 16(SP)
	INCQ AX
	CMPQ AX, p+0(FP)
	JLE  r4degree

	VZEROUPPER
	RET

// func axial4AVX2(p int, outRe, outIm, inRe, inIm *[4]float64, axbL *float64, rpow *[4]float64)
//
// axialAVX2 with one output degree j per pass (DX = j-k) and 32-byte
// coefficients: ab is broadcast, the four columns' radial powers and the
// input loaded. BX = order k's block of axbL, R10 = &rpow[2k], 0(SP) = k,
// AX counts the terms.
TEXT ·axial4AVX2(SB), NOSPLIT, $8-56
	MOVQ p+0(FP), CX
	INCQ CX
	MOVQ outRe+8(FP), R8
	MOVQ outIm+16(FP), R9
	MOVQ inRe+24(FP), SI
	MOVQ inIm+32(FP), DI
	MOVQ axbL+40(FP), BX
	MOVQ rpow+48(FP), R10
	VPCMPEQD Y14, Y14, Y14
	VPSLLQ  $63, Y14, Y14
	VXORPD  Y15, Y15, Y15
	MOVQ $0, 0(SP)

a4order:
	XORQ DX, DX

a4degree:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ SI, R11
	MOVQ DI, R12
	MOVQ 0(SP), R13
	INCQ R13
	SHLQ $5, R13
	MOVQ DX, R14                       // &rpow[j+k+i], 32 bytes a row
	SHLQ $5, R14
	ADDQ R10, R14
	MOVQ DX, R15                       // lane (j-k)%4 of group (j-k)/4,
	SHRQ $2, R15                       // a group being p-k+1 terms of 4
	IMULQ CX, R15
	SHLQ $2, R15
	MOVQ DX, AX
	ANDQ $3, AX
	ADDQ AX, R15
	LEAQ (BX)(R15*8), R15
	MOVQ CX, AX

a4term:
	VBROADCASTSD (R15), Y2
	VMULPD  (R14), Y2, Y2              // c = ab * rpow, per column
	VMULPD  (R11), Y2, Y3
	VMULPD  (R12), Y2, Y4
	VADDPD  Y3, Y0, Y0
	VADDPD  Y4, Y1, Y1
	ADDQ $32, R15
	ADDQ $32, R14
	ADDQ R13, R11
	ADDQ R13, R12
	ADDQ $32, R13
	DECQ AX
	JNZ  a4term

	VXORPD  Y15, Y0, Y0
	VXORPD  Y15, Y1, Y1
	MOVQ DX, AX
	SHLQ $5, AX
	VMOVUPD Y0, (R8)(AX*1)
	VMOVUPD Y1, (R9)(AX*1)
	INCQ DX
	CMPQ DX, CX
	JLT  a4degree

	MOVQ CX, AX
	SHLQ $5, AX
	ADDQ AX, R8
	ADDQ AX, R9
	LEAQ 3(CX), AX
	SHRQ $2, AX
	IMULQ CX, AX
	SHLQ $5, AX
	ADDQ AX, BX
	MOVQ 0(SP), AX
	LEAQ 2(AX), R15
	SHLQ $5, R15
	ADDQ R15, SI
	ADDQ R15, DI
	ADDQ $64, R10
	VXORPD  Y14, Y15, Y15
	INCQ AX
	MOVQ AX, 0(SP)
	DECQ CX
	JNZ  a4order

	VZEROUPPER
	RET

// The phase split and the merge are elementwise: a lane is one coefficient
// (width 1: four consecutive orders m of a degree; width 4: the four
// columns), each a rounded product pair and a rounded sum or difference, as
// in m2lApply.
//
// At width 1 the complex pairs (re, im) of src, zph and l are unzipped with
// VUNPCKLPD/VUNPCKHPD, which leaves four consecutive m in the lane order
// (0, 2 | 1, 3); VPERMPD $0xD8 converts to and from memory order.

// func splitAVX2(p int, aRe, aIm *float64, src, zph *complex128)
//
// a_n^m = (-1)^m e^{im phi} src_n^m, degree-major. A last group of a degree
// reads src into the next degree and zph up to laneSlack entries past m = p,
// and overruns a as rotHalfAVX2 does; a group that would read past the end
// of src is done one coefficient at a time instead (sone).
//
// AX = n   BX = zph   CX = 8 m0, DX = 16 m0: the group's first order
// SI = src_n^0   R8, R9 = a_n^0   R10 = end of src
// Y13 = sign bits of the lanes with odd m   X12 = sign bit if m is odd (sone).
TEXT ·splitAVX2(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), AX
	MOVQ aRe+8(FP), R8
	MOVQ aIm+16(FP), R9
	MOVQ src+24(FP), SI
	MOVQ zph+32(FP), BX
	LEAQ 1(AX), R10
	LEAQ 2(AX), CX
	IMULQ CX, R10
	SHLQ $3, R10                       // 16 PackedLen(p) bytes
	ADDQ SI, R10
	VPCMPEQD Y14, Y14, Y14
	VPSLLQ  $63, Y14, Y14
	VXORPD  Y13, Y13, Y13
	VINSERTF128 $1, X14, Y13, Y13
	XORQ AX, AX

sdegree:
	XORQ CX, CX
	XORQ DX, DX

sgroup:
	LEAQ 64(SI)(DX*1), R11
	CMPQ R11, R10
	JHI  stail
	VMOVUPD (SI)(DX*1), Y0             // x0 y0 | x1 y1
	VMOVUPD 32(SI)(DX*1), Y1           // x2 y2 | x3 y3
	VUNPCKLPD Y1, Y0, Y2               // x0 x2 | x1 x3
	VUNPCKHPD Y1, Y0, Y3               // y
	VMOVUPD (BX)(DX*1), Y4
	VMOVUPD 32(BX)(DX*1), Y5
	VUNPCKLPD Y5, Y4, Y6               // c = Re e^{im phi}
	VUNPCKHPD Y5, Y4, Y7               // s = Im
	VXORPD  Y13, Y6, Y6
	VXORPD  Y13, Y7, Y7
	VMULPD  Y6, Y2, Y8
	VMULPD  Y7, Y3, Y9
	VSUBPD  Y9, Y8, Y8                 // x*c - y*s
	VMULPD  Y7, Y2, Y10
	VMULPD  Y6, Y3, Y11
	VADDPD  Y11, Y10, Y10              // x*s + y*c
	VPERMPD $0xD8, Y8, Y8
	VPERMPD $0xD8, Y10, Y10
	VMOVUPD Y8, (R8)(CX*1)
	VMOVUPD Y10, (R9)(CX*1)
	ADDQ $32, CX
	ADDQ $64, DX
	LEAQ 8(AX*8), R11
	CMPQ CX, R11
	JLT  sgroup
	JMP  snext

stail:
	VXORPD X12, X12, X12               // m0 is even
	LEAQ 8(AX*8), R11
sone:
	VMOVSD (SI)(DX*1), X0
	VMOVSD 8(SI)(DX*1), X1
	VMOVSD (BX)(DX*1), X2
	VMOVSD 8(BX)(DX*1), X3
	VXORPD X12, X2, X2
	VXORPD X12, X3, X3
	VMULSD X2, X0, X4
	VMULSD X3, X1, X5
	VSUBSD X5, X4, X4
	VMULSD X3, X0, X6
	VMULSD X2, X1, X7
	VADDSD X7, X6, X6
	VMOVSD X4, (R8)(CX*1)
	VMOVSD X6, (R9)(CX*1)
	VXORPD X14, X12, X12
	ADDQ $8, CX
	ADDQ $16, DX
	CMPQ CX, R11
	JLT  sone

snext:
	LEAQ 8(R8)(AX*8), R8
	LEAQ 8(R9)(AX*8), R9
	LEAQ 1(AX), R11
	SHLQ $4, R11
	ADDQ R11, SI
	INCQ AX
	CMPQ AX, p+0(FP)
	JLE  sdegree

	VZEROUPPER
	RET

// func mergeAVX2(p int, l *complex128, bRe, bIm *float64, zph, tmp *complex128)
//
// l_n^m += e^{-im phi} b_n^m. The rotated-back values are zipped into tmp
// (PackedLen(p)+laneSlack entries) group by group, overrunning as above, and
// tmp is then added to l from end to end, so l itself is never overrun.
//
// AX = n   BX = zph   CX = 8 m0, DX = 16 m0   SI, DI = b_n^0   R8 = tmp_n^0.
TEXT ·mergeAVX2(SB), NOSPLIT, $0-48
	MOVQ bRe+16(FP), SI
	MOVQ bIm+24(FP), DI
	MOVQ zph+32(FP), BX
	MOVQ tmp+40(FP), R8
	XORQ AX, AX

mdegree:
	XORQ CX, CX
	XORQ DX, DX

mgroup:
	VMOVUPD (SI)(CX*1), Y0
	VMOVUPD (DI)(CX*1), Y1
	VPERMPD $0xD8, Y0, Y0              // x0 x2 | x1 x3
	VPERMPD $0xD8, Y1, Y1
	VMOVUPD (BX)(DX*1), Y4
	VMOVUPD 32(BX)(DX*1), Y5
	VUNPCKLPD Y5, Y4, Y6               // c
	VUNPCKHPD Y5, Y4, Y7               // s
	VMULPD  Y6, Y0, Y2
	VMULPD  Y7, Y1, Y3
	VADDPD  Y3, Y2, Y2                 // x*c + y*s
	VMULPD  Y6, Y1, Y8
	VMULPD  Y7, Y0, Y9
	VSUBPD  Y9, Y8, Y8                 // y*c - x*s
	VUNPCKLPD Y8, Y2, Y10              // re0 im0 | re1 im1
	VUNPCKHPD Y8, Y2, Y11              // re2 im2 | re3 im3
	VMOVUPD Y10, (R8)(DX*1)
	VMOVUPD Y11, 32(R8)(DX*1)
	ADDQ $32, CX
	ADDQ $64, DX
	LEAQ 8(AX*8), R11
	CMPQ CX, R11
	JLT  mgroup

	LEAQ 8(SI)(AX*8), SI
	LEAQ 8(DI)(AX*8), DI
	LEAQ 1(AX), R11
	SHLQ $4, R11
	ADDQ R11, R8
	INCQ AX
	CMPQ AX, p+0(FP)
	JLE  mdegree

	MOVQ l+8(FP), DI
	MOVQ tmp+40(FP), R8
	MOVQ p+0(FP), AX
	LEAQ 1(AX), CX
	ADDQ $2, AX
	IMULQ AX, CX
	SHRQ $1, CX                        // PackedLen(p)
	MOVQ CX, DX
	SHRQ $1, DX
	JZ   mlast
mpair:
	VMOVUPD (DI), Y0
	VADDPD  (R8), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, R8
	DECQ DX
	JNZ  mpair
mlast:
	TESTQ $1, CX
	JZ   mdone
	VMOVUPD (DI), X0
	VADDPD  (R8), X0, X0
	VMOVUPD X0, (DI)
mdone:
	VZEROUPPER
	RET

// func split4AVX2(p int, aRe, aIm *[4]float64, s0, s1, s2, s3 *complex128, zph *[4]float64)
//
// Order by order: the four columns' c and s loaded (zph[2m], zph[2m+1]),
// their (re, im) zipped into one re and one im vector.
//
// AX = m   BX = &zph[2m]   CX = 16 Idx(n, m)   DX = 16 (n+1)   SI, DI, R10,
// R11 = columns   R8, R9 = a   R12 = degrees left   Y13 = sign bits if m is
// odd, else 0.
TEXT ·split4AVX2(SB), NOSPLIT, $0-64
	MOVQ aRe+8(FP), R8
	MOVQ aIm+16(FP), R9
	MOVQ s0+24(FP), SI
	MOVQ s1+32(FP), DI
	MOVQ s2+40(FP), R10
	MOVQ s3+48(FP), R11
	MOVQ zph+56(FP), BX
	VPCMPEQD Y14, Y14, Y14
	VPSLLQ  $63, Y14, Y14
	VXORPD  Y13, Y13, Y13
	XORQ AX, AX
	XORQ CX, CX                        // Idx(0, 0)

s4order:
	VMOVUPD (BX), Y6
	VMOVUPD 32(BX), Y7
	VXORPD  Y13, Y6, Y6
	VXORPD  Y13, Y7, Y7
	MOVQ CX, R13
	LEAQ 1(AX), DX
	SHLQ $4, DX
	MOVQ p+0(FP), R12
	SUBQ AX, R12
	INCQ R12

s4term:
	VMOVUPD (SI)(R13*1), X0
	VINSERTF128 $1, (R10)(R13*1), Y0, Y0   // x0 y0 | x2 y2
	VMOVUPD (DI)(R13*1), X1
	VINSERTF128 $1, (R11)(R13*1), Y1, Y1   // x1 y1 | x3 y3
	VUNPCKLPD Y1, Y0, Y2               // x
	VUNPCKHPD Y1, Y0, Y3               // y
	VMULPD  Y6, Y2, Y8
	VMULPD  Y7, Y3, Y9
	VSUBPD  Y9, Y8, Y8                 // x*c - y*s
	VMULPD  Y7, Y2, Y10
	VMULPD  Y6, Y3, Y11
	VADDPD  Y11, Y10, Y10              // x*s + y*c
	VMOVUPD Y8, (R8)(R13*2)
	VMOVUPD Y10, (R9)(R13*2)
	ADDQ DX, R13
	ADDQ $16, DX
	DECQ R12
	JNZ  s4term

	LEAQ 2(AX), DX                     // Idx(m+1, m+1) - Idx(m, m) = m+2
	SHLQ $4, DX
	ADDQ DX, CX
	ADDQ $64, BX
	VXORPD  Y14, Y13, Y13
	INCQ AX
	CMPQ AX, p+0(FP)
	JLE  s4order

	VZEROUPPER
	RET

// func merge4AVX2(p int, l0, l1, l2, l3 *complex128, bRe, bIm, zph *[4]float64)
//
// split4AVX2's registers, with R8, R9 = b and no sign. The four columns'
// values are added to l0, l1, l2, l3 one after another, each a load, an
// add and a store, so a column reads what the columns before it stored:
// targets may repeat, and each then takes its columns in column order.
TEXT ·merge4AVX2(SB), NOSPLIT, $0-64
	MOVQ l0+8(FP), SI
	MOVQ l1+16(FP), DI
	MOVQ l2+24(FP), R10
	MOVQ l3+32(FP), R11
	MOVQ bRe+40(FP), R8
	MOVQ bIm+48(FP), R9
	MOVQ zph+56(FP), BX
	XORQ AX, AX
	XORQ CX, CX

m4order:
	VMOVUPD (BX), Y6
	VMOVUPD 32(BX), Y7
	MOVQ CX, R13
	LEAQ 1(AX), DX
	SHLQ $4, DX
	MOVQ p+0(FP), R12
	SUBQ AX, R12
	INCQ R12

m4term:
	VMOVUPD (R8)(R13*2), Y0
	VMOVUPD (R9)(R13*2), Y1
	VMULPD  Y6, Y0, Y2
	VMULPD  Y7, Y1, Y3
	VADDPD  Y3, Y2, Y2                 // x*c + y*s
	VMULPD  Y6, Y1, Y8
	VMULPD  Y7, Y0, Y9
	VSUBPD  Y9, Y8, Y8                 // y*c - x*s
	VUNPCKLPD Y8, Y2, Y10              // re0 im0 | re2 im2
	VUNPCKHPD Y8, Y2, Y11              // re1 im1 | re3 im3
	VMOVUPD (SI)(R13*1), X4
	VADDPD  X10, X4, X4
	VMOVUPD X4, (SI)(R13*1)
	VMOVUPD (DI)(R13*1), X5
	VADDPD  X11, X5, X5
	VMOVUPD X5, (DI)(R13*1)
	VEXTRACTF128 $1, Y10, X10
	VEXTRACTF128 $1, Y11, X11
	VMOVUPD (R10)(R13*1), X4
	VADDPD  X10, X4, X4
	VMOVUPD X4, (R10)(R13*1)
	VMOVUPD (R11)(R13*1), X5
	VADDPD  X11, X5, X5
	VMOVUPD X5, (R11)(R13*1)
	ADDQ DX, R13
	ADDQ $16, DX
	DECQ R12
	JNZ  m4term

	LEAQ 2(AX), DX
	SHLQ $4, DX
	ADDQ DX, CX
	ADDQ $64, BX
	INCQ AX
	CMPQ AX, p+0(FP)
	JLE  m4order

	VZEROUPPER
	RET

// func geoLanesAVX2(p int, zph, rpow *[4]float64, z0, z1, z2, z3 *complex128, r0, r1, r2, r3 *float64)
//
// colGeom.fill: transposes four phase rows (p+1 entries, each cos and sin)
// and four radial-power rows (2p+2 entries) into the lane-major layout,
// two entries per pass, with whole 32-byte stores that the width-4
// stages' vector loads forward from.
//
// AX = byte offset into the rows (16 a pass)   CX = passes, p+1
// DI = destination   R8..R11 = the four rows   DX = passes left.
TEXT ·geoLanesAVX2(SB), NOSPLIT, $0-88
	MOVQ p+0(FP), CX
	INCQ CX
	MOVQ zph+8(FP), DI
	MOVQ z0+24(FP), R8
	MOVQ z1+32(FP), R9
	MOVQ z2+40(FP), R10
	MOVQ z3+48(FP), R11
	XORQ AX, AX
	MOVQ CX, DX

glz:
	VMOVUPD (R8)(AX*1), X0
	VINSERTF128 $1, (R10)(AX*1), Y0, Y0   // a0 a1 | c0 c1
	VMOVUPD (R9)(AX*1), X1
	VINSERTF128 $1, (R11)(AX*1), Y1, Y1   // b0 b1 | d0 d1
	VUNPCKLPD Y1, Y0, Y2                  // a0 b0 | c0 d0
	VUNPCKHPD Y1, Y0, Y3                  // a1 b1 | c1 d1
	VMOVUPD Y2, (DI)(AX*4)
	VMOVUPD Y3, 32(DI)(AX*4)
	ADDQ $16, AX
	DECQ DX
	JNZ  glz

	MOVQ rpow+16(FP), DI
	MOVQ r0+56(FP), R8
	MOVQ r1+64(FP), R9
	MOVQ r2+72(FP), R10
	MOVQ r3+80(FP), R11
	XORQ AX, AX
	MOVQ CX, DX

glr:
	VMOVUPD (R8)(AX*1), X0
	VINSERTF128 $1, (R10)(AX*1), Y0, Y0
	VMOVUPD (R9)(AX*1), X1
	VINSERTF128 $1, (R11)(AX*1), Y1, Y1
	VUNPCKLPD Y1, Y0, Y2
	VUNPCKHPD Y1, Y0, Y3
	VMOVUPD Y2, (DI)(AX*4)
	VMOVUPD Y3, 32(DI)(AX*4)
	ADDQ $16, AX
	DECQ DX
	JNZ  glr

	VZEROUPPER
	RET
