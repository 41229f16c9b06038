//go:build amd64

#include "textflag.h"

// Packed leaf bodies: the solid-harmonic recurrences of Regular and
// RegularGrad for four bodies at once, one body per float64 lane of a ymm
// register, and the two contractions that consume them (P2M's
// accumulation, L2P's evalLocal). A lane runs the scalar form's IEEE
// operations in its order with a separate VMULPD and VADDPD/VSUBPD (no
// FMA), so every lane's results are == the scalar ones by construction.
// The recurrence constants are broadcast from recur, the body geometry is
// a laneGeom (rows x, y, z, |v|^2, 2x, 2y, 2z at 32-byte steps).
//
// Plan 9 operand order: VMULPD b, a, d is d = a * b; VADDPD b, a, d is
// d = a + b; VSUBPD b, a, d is d = a - b.

// 1.0, R_0^0. (Loaded from memory: a legacy-SSE MOVQ into an xmm register
// here cost the call a state-transition stall of some hundred cycles.)
DATA leafOne<>+0(SB)/8, $1.0
GLOBL leafOne<>(SB), RODATA|NOPTR, $8

// func regularAVX2(p int, lanes *float64, geo *laneGeom, ab *float64)
//
// 64 bytes per coefficient: R re, R im.
// AX = m   CX = n   R8 = p   DI = R_m^m   R9 = R_{m-1}^{m-1}
// R10 = &ab[2 Idx(m,m)]   R11 = &ab[2 Idx(n,m)]   R12 = R_{n-1}^m
// R13 = R_{n-2}^m (laneZeros at n = m+1)   R14 = R_n^m   R15 = stride
// Y14 = z   Y15 = |v|^2
TEXT ·regularAVX2(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), R8
	MOVQ lanes+8(FP), DI
	MOVQ geo+16(FP), SI
	MOVQ ab+24(FP), R10
	VMOVUPD 64(SI), Y14
	VMOVUPD 96(SI), Y15
	VBROADCASTSD leafOne<>(SB), Y0
	VXORPD  Y1, Y1, Y1
	VMOVUPD Y0, (DI)                   // R_0^0 = 1
	VMOVUPD Y1, 32(DI)
	XORQ AX, AX
	JMP  gcolumn

gdiag:
	// R_m^m = c (x+iy) R_{m-1}^{m-1}: (u, w) = (c x, c y).
	VBROADCASTSD (R10), Y8
	VMULPD  (SI), Y8, Y9               // u
	VMULPD  32(SI), Y8, Y8             // w
	VMULPD  (R9), Y9, Y0
	VMULPD  32(R9), Y8, Y1
	VSUBPD  Y1, Y0, Y0                 // u re - w im
	VMULPD  32(R9), Y9, Y2
	VMULPD  (R9), Y8, Y3
	VADDPD  Y3, Y2, Y2                 // u im + w re
	VMOVUPD Y0, (DI)
	VMOVUPD Y2, 32(DI)

gcolumn:
	MOVQ DI, R12
	LEAQ ·laneZeros(SB), R13
	LEAQ 1(AX), CX                     // n = m+1
	MOVQ CX, R15
	SHLQ $6, R15
	LEAQ (DI)(R15*1), R14              // Idx(m+1,m) = Idx(m,m) + m+1
	MOVQ CX, R15
	SHLQ $4, R15
	LEAQ (R10)(R15*1), R11

gstep:
	CMPQ CX, R8
	JGT  gnext
	// R_n^m = a z R_{n-1}^m - b |v|^2 R_{n-2}^m
	VBROADCASTSD (R11), Y8
	VBROADCASTSD 8(R11), Y9
	VMULPD  Y14, Y8, Y8                // a z
	VMULPD  Y15, Y9, Y9                // b |v|^2
	VMULPD  (R12), Y8, Y0
	VMULPD  (R13), Y9, Y1
	VSUBPD  Y1, Y0, Y0
	VMULPD  32(R12), Y8, Y2
	VMULPD  32(R13), Y9, Y3
	VSUBPD  Y3, Y2, Y2
	VMOVUPD Y0, (R14)
	VMOVUPD Y2, 32(R14)
	MOVQ R12, R13
	MOVQ R14, R12
	INCQ CX                            // Idx(n+1,m) = Idx(n,m) + n+1
	MOVQ CX, R15
	SHLQ $6, R15
	ADDQ R15, R14
	MOVQ CX, R15
	SHLQ $4, R15
	ADDQ R15, R11
	JMP  gstep

gnext:
	INCQ AX
	CMPQ AX, R8
	JGT  gdone
	MOVQ DI, R9
	LEAQ 1(AX), R15                    // Idx(m,m) = Idx(m-1,m-1) + m+1
	MOVQ R15, CX
	SHLQ $6, R15
	ADDQ R15, DI
	SHLQ $4, CX
	ADDQ CX, R10
	JMP  gdiag

gdone:
	VZEROUPPER
	RET

// func p2mAccAVX2(n, nb int, lanes *float64, q *[4]float64, dst *complex128)
//
// Per coefficient: the lanes' terms q[b] R re and -(q[b] R im), zipped
// into (re, im) pairs (bodies 0, 2 in Y2; 1, 3 in Y3) and added to the
// coefficient one body at a time, bodies 0..nb-1.
// CX = coefficients left   DX = nb   SI = lanes   DI = dst
// Y14 = sign bits   Y15 = q
TEXT ·p2mAccAVX2(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), CX
	MOVQ nb+8(FP), DX
	MOVQ lanes+16(FP), SI
	MOVQ q+24(FP), AX
	MOVQ dst+32(FP), DI
	VMOVUPD (AX), Y15
	VPCMPEQD Y14, Y14, Y14
	VPSLLQ  $63, Y14, Y14

pterm:
	VMULPD  (SI), Y15, Y0              // q R re
	VMULPD  32(SI), Y15, Y1
	VXORPD  Y14, Y1, Y1                // -(q R im)
	VUNPCKLPD Y1, Y0, Y2               // bodies 0 and 2
	VUNPCKHPD Y1, Y0, Y3               // bodies 1 and 3
	VMOVUPD (DI), X4
	VADDPD  X2, X4, X4
	CMPQ DX, $2
	JLT  pstore
	VADDPD  X3, X4, X4
	CMPQ DX, $3
	JLT  pstore
	VEXTRACTF128 $1, Y2, X5
	VADDPD  X5, X4, X4
	CMPQ DX, $4
	JLT  pstore
	VEXTRACTF128 $1, Y3, X5
	VADDPD  X5, X4, X4

pstore:
	VMOVUPD X4, (DI)
	ADDQ $64, SI
	ADDQ $16, DI
	DECQ CX
	JNZ  pterm

	VZEROUPPER
	RET

// func regGradAVX2(p int, lanes *float64, geo *laneGeom, ab *float64)
//
// regularAVX2 with the gradients: 256 bytes per coefficient, R re, im at
// 0, 32; dR/dx at 64, 96; dR/dy at 128, 160; dR/dz at 192, 224.
// Registers as in regularAVX2.
TEXT ·regGradAVX2(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), R8
	MOVQ lanes+8(FP), DI
	MOVQ geo+16(FP), SI
	MOVQ ab+24(FP), R10
	VMOVUPD 64(SI), Y14
	VMOVUPD 96(SI), Y15
	VBROADCASTSD leafOne<>(SB), Y0
	VXORPD  Y1, Y1, Y1
	VMOVUPD Y0, (DI)                   // R_0^0 = 1, its gradient 0
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y1, 64(DI)
	VMOVUPD Y1, 96(DI)
	VMOVUPD Y1, 128(DI)
	VMOVUPD Y1, 160(DI)
	VMOVUPD Y1, 192(DI)
	VMOVUPD Y1, 224(DI)
	XORQ AX, AX
	JMP  dcolumn

ddiag:
	// Y13 = c, Y9 = x, Y10 = y, Y11 = u = c x, Y12 = w = c y.
	VBROADCASTSD (R10), Y13
	VMOVUPD (SI), Y9
	VMOVUPD 32(SI), Y10
	VMULPD  Y9, Y13, Y11
	VMULPD  Y10, Y13, Y12
	// R = (u, w) R'
	VMULPD  (R9), Y11, Y0
	VMULPD  32(R9), Y12, Y1
	VSUBPD  Y1, Y0, Y0
	VMULPD  32(R9), Y11, Y1
	VMULPD  (R9), Y12, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	// dR/dx = c (R' + (x+iy) dR'/dx)
	VMULPD  64(R9), Y9, Y0
	VMULPD  96(R9), Y10, Y1
	VSUBPD  Y1, Y0, Y0
	VADDPD  (R9), Y0, Y0
	VMULPD  Y13, Y0, Y0
	VMULPD  96(R9), Y9, Y1
	VMULPD  64(R9), Y10, Y2
	VADDPD  Y2, Y1, Y1
	VADDPD  32(R9), Y1, Y1
	VMULPD  Y13, Y1, Y1
	VMOVUPD Y0, 64(DI)
	VMOVUPD Y1, 96(DI)
	// dR/dy = c (i R' + (x+iy) dR'/dy)
	VMULPD  128(R9), Y9, Y0
	VMULPD  160(R9), Y10, Y1
	VSUBPD  Y1, Y0, Y0
	VSUBPD  32(R9), Y0, Y0
	VMULPD  Y13, Y0, Y0
	VMULPD  160(R9), Y9, Y1
	VMULPD  128(R9), Y10, Y2
	VADDPD  Y2, Y1, Y1
	VADDPD  (R9), Y1, Y1
	VMULPD  Y13, Y1, Y1
	VMOVUPD Y0, 128(DI)
	VMOVUPD Y1, 160(DI)
	// dR/dz = (u, w) dR'/dz
	VMULPD  192(R9), Y11, Y0
	VMULPD  224(R9), Y12, Y1
	VSUBPD  Y1, Y0, Y0
	VMULPD  224(R9), Y11, Y1
	VMULPD  192(R9), Y12, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y0, 192(DI)
	VMOVUPD Y1, 224(DI)

dcolumn:
	MOVQ DI, R12
	LEAQ ·laneZeros(SB), R13
	LEAQ 1(AX), CX
	MOVQ CX, R15
	SHLQ $8, R15
	LEAQ (DI)(R15*1), R14
	MOVQ CX, R15
	SHLQ $4, R15
	LEAQ (R10)(R15*1), R11

dstep:
	CMPQ CX, R8
	JGT  dnext
	// Y12 = a, Y13 = b, Y10 = a z, Y11 = b |v|^2; R12 = degree n-1,
	// R13 = degree n-2.
	VBROADCASTSD (R11), Y12
	VBROADCASTSD 8(R11), Y13
	VMULPD  Y14, Y12, Y10
	VMULPD  Y15, Y13, Y11
	// R = a z R1 - b |v|^2 R2
	VMULPD  (R12), Y10, Y0
	VMULPD  (R13), Y11, Y1
	VSUBPD  Y1, Y0, Y0
	VMULPD  32(R12), Y10, Y1
	VMULPD  32(R13), Y11, Y2
	VSUBPD  Y2, Y1, Y1
	VMOVUPD Y0, (R14)
	VMOVUPD Y1, 32(R14)
	// dR/dx = a z X1 - b (2x R2 + |v|^2 X2)
	VMOVUPD 128(SI), Y9
	VMULPD  (R13), Y9, Y2
	VMULPD  64(R13), Y15, Y3
	VADDPD  Y3, Y2, Y2
	VMULPD  Y13, Y2, Y2
	VMULPD  64(R12), Y10, Y3
	VSUBPD  Y2, Y3, Y3
	VMULPD  32(R13), Y9, Y2
	VMULPD  96(R13), Y15, Y4
	VADDPD  Y4, Y2, Y2
	VMULPD  Y13, Y2, Y2
	VMULPD  96(R12), Y10, Y4
	VSUBPD  Y2, Y4, Y4
	VMOVUPD Y3, 64(R14)
	VMOVUPD Y4, 96(R14)
	// dR/dy = a z Y1 - b (2y R2 + |v|^2 Y2)
	VMOVUPD 160(SI), Y9
	VMULPD  (R13), Y9, Y2
	VMULPD  128(R13), Y15, Y3
	VADDPD  Y3, Y2, Y2
	VMULPD  Y13, Y2, Y2
	VMULPD  128(R12), Y10, Y3
	VSUBPD  Y2, Y3, Y3
	VMULPD  32(R13), Y9, Y2
	VMULPD  160(R13), Y15, Y4
	VADDPD  Y4, Y2, Y2
	VMULPD  Y13, Y2, Y2
	VMULPD  160(R12), Y10, Y4
	VSUBPD  Y2, Y4, Y4
	VMOVUPD Y3, 128(R14)
	VMOVUPD Y4, 160(R14)
	// dR/dz = a (R1 + z Z1) - b (2z R2 + |v|^2 Z2)
	VMOVUPD 192(SI), Y9
	VMULPD  192(R12), Y14, Y2
	VADDPD  (R12), Y2, Y2
	VMULPD  Y12, Y2, Y2
	VMULPD  (R13), Y9, Y3
	VMULPD  192(R13), Y15, Y4
	VADDPD  Y4, Y3, Y3
	VMULPD  Y13, Y3, Y3
	VSUBPD  Y3, Y2, Y2
	VMULPD  224(R12), Y14, Y3
	VADDPD  32(R12), Y3, Y3
	VMULPD  Y12, Y3, Y3
	VMULPD  32(R13), Y9, Y4
	VMULPD  224(R13), Y15, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y13, Y4, Y4
	VSUBPD  Y4, Y3, Y3
	VMOVUPD Y2, 192(R14)
	VMOVUPD Y3, 224(R14)
	MOVQ R12, R13
	MOVQ R14, R12
	INCQ CX
	MOVQ CX, R15
	SHLQ $8, R15
	ADDQ R15, R14
	MOVQ CX, R15
	SHLQ $4, R15
	ADDQ R15, R11
	JMP  dstep

dnext:
	INCQ AX
	CMPQ AX, R8
	JGT  ddone
	MOVQ DI, R9
	LEAQ 1(AX), R15
	MOVQ R15, CX
	SHLQ $8, R15
	ADDQ R15, DI
	SHLQ $4, CX
	ADDQ CX, R10
	JMP  ddiag

ddone:
	VZEROUPPER
	RET

// func localAVX2(p int, l *complex128, lanes *float64, out *[4][4]float64)
//
// evalLocal per lane over regGradAVX2's output, coefficients in packed
// order (degree n, then m = 0..n).
// AX = n   CX = m's left in the degree   SI = l's coefficient   DI = its
// lanes   Y0..Y3 = phi, gx, gy, gz   Y4, Y5 = the coefficient's re, im
TEXT ·localAVX2(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), R8
	MOVQ l+8(FP), SI
	MOVQ lanes+16(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

ldegree:
	// m = 0: phi = phi + re R re - im R im; g += re G re - im G im.
	VBROADCASTSD (SI), Y4
	VBROADCASTSD 8(SI), Y5
	VMULPD  (DI), Y4, Y6
	VADDPD  Y6, Y0, Y0
	VMULPD  32(DI), Y5, Y6
	VSUBPD  Y6, Y0, Y0
	VMULPD  64(DI), Y4, Y6
	VMULPD  96(DI), Y5, Y7
	VSUBPD  Y7, Y6, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  128(DI), Y4, Y6
	VMULPD  160(DI), Y5, Y7
	VSUBPD  Y7, Y6, Y6
	VADDPD  Y6, Y2, Y2
	VMULPD  192(DI), Y4, Y6
	VMULPD  224(DI), Y5, Y7
	VSUBPD  Y7, Y6, Y6
	VADDPD  Y6, Y3, Y3
	ADDQ $16, SI
	ADDQ $256, DI
	MOVQ AX, CX
	TESTQ CX, CX
	JZ   lnext

lterm:
	// m > 0: each sum takes 2 (re R re - im R im), the 2 as t + t.
	VBROADCASTSD (SI), Y4
	VBROADCASTSD 8(SI), Y5
	VMULPD  (DI), Y4, Y6
	VMULPD  32(DI), Y5, Y7
	VSUBPD  Y7, Y6, Y6
	VADDPD  Y6, Y6, Y6
	VADDPD  Y6, Y0, Y0
	VMULPD  64(DI), Y4, Y8
	VMULPD  96(DI), Y5, Y9
	VSUBPD  Y9, Y8, Y8
	VADDPD  Y8, Y8, Y8
	VADDPD  Y8, Y1, Y1
	VMULPD  128(DI), Y4, Y10
	VMULPD  160(DI), Y5, Y11
	VSUBPD  Y11, Y10, Y10
	VADDPD  Y10, Y10, Y10
	VADDPD  Y10, Y2, Y2
	VMULPD  192(DI), Y4, Y12
	VMULPD  224(DI), Y5, Y13
	VSUBPD  Y13, Y12, Y12
	VADDPD  Y12, Y12, Y12
	VADDPD  Y12, Y3, Y3
	ADDQ $16, SI
	ADDQ $256, DI
	DECQ CX
	JNZ  lterm

lnext:
	INCQ AX
	CMPQ AX, R8
	JLE  ldegree

	MOVQ out+24(FP), DI
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET
