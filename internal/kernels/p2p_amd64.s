//go:build amd64

#include "textflag.h"

// Packed P2P bodies: four target bodies per ymm register, one lane each,
// against a streamed source list. Every lane performs exactly the IEEE
// operations of the scalar reference (Gravity.P2PScalar, Stokeslet.P2PScalar)
// in the same order: VSQRTPD/VDIVPD are correctly rounded per lane, there is
// no FMA, and the scalar loop's `continue` is a VBLENDVPD that leaves a
// skipped lane's accumulators untouched.
//
// Plan 9 operand order: VSUBPD b, a, d is d = a - b; VDIVPD b, a, d is
// d = a / b; VBLENDVPD m, new, old, d is d = m ? new : old (per lane sign bit).

// LOAD4 gathers one float64 field of four consecutive geom.Vec3 (stride 24)
// into the four lanes of y; x is y's low half, tx a scratch xmm register.
#define LOAD4(off, base, x, y, tx) \
	VMOVSD  off(base), x \
	VMOVHPD (off+24)(base), x, x \
	VMOVSD  (off+48)(base), tx \
	VMOVHPD (off+72)(base), tx, tx \
	VINSERTF128 $1, tx, y, y

// STORE4 scatters the four lanes of y back to that field.
#define STORE4(off, base, x, y, tx) \
	VEXTRACTF128 $1, y, tx \
	VMOVLPD x, off(base) \
	VMOVHPD x, (off+24)(base) \
	VMOVLPD tx, (off+48)(base) \
	VMOVHPD tx, (off+72)(base)

// func gravityP2PBlocks(xt *geom.Vec3, phi *float64, acc *geom.Vec3, nblk int, ys *geom.Vec3, ms *float64, ns int, eps2, bigG float64)
//
// nblk blocks of four consecutive targets against the same ns sources.
// Y0-2 = target x,y,z   Y3 = phi   Y4-6 = acc x,y,z   Y13 = 0   Y14 = 1
// 0(SP) = eps2 x4, 32(SP) = G x4.
TEXT ·gravityP2PBlocks(SB), NOSPLIT, $64-72
	MOVQ xt+0(FP), SI
	MOVQ phi+8(FP), DI
	MOVQ acc+16(FP), R8
	MOVQ nblk+24(FP), R9
	MOVQ ns+48(FP), R10
	TESTQ R9, R9
	JLE  gdone
	TESTQ R10, R10
	JLE  gdone

	VBROADCASTSD eps2+56(FP), Y13
	VMOVUPD Y13, 0(SP)
	VBROADCASTSD bigG+64(FP), Y13
	VMOVUPD Y13, 32(SP)
	VXORPD  Y13, Y13, Y13
	VPCMPEQD Y14, Y14, Y14
	VPSLLQ  $54, Y14, Y14
	VPSRLQ  $2, Y14, Y14               // 1.0 in every lane (0x3FF0000000000000)

gblock:
	LOAD4(0, SI, X0, Y0, X15)
	LOAD4(8, SI, X1, Y1, X15)
	LOAD4(16, SI, X2, Y2, X15)
	VMOVUPD (DI), Y3
	LOAD4(0, R8, X4, Y4, X15)
	LOAD4(8, R8, X5, Y5, X15)
	LOAD4(16, R8, X6, Y6, X15)
	MOVQ ys+32(FP), BX
	MOVQ ms+40(FP), CX
	MOVQ R10, DX

gloop:
	VBROADCASTSD 0(BX), Y7
	VBROADCASTSD 8(BX), Y8
	VBROADCASTSD 16(BX), Y9
	VBROADCASTSD (CX), Y10
	VMULPD  32(SP), Y10, Y10           // gm = G*m
	VSUBPD  Y7, Y0, Y7                 // d = x - y
	VSUBPD  Y8, Y1, Y8
	VSUBPD  Y9, Y2, Y9
	VMULPD  Y7, Y7, Y11
	VMULPD  Y8, Y8, Y12
	VADDPD  Y12, Y11, Y11
	VMULPD  Y9, Y9, Y12
	VADDPD  Y12, Y11, Y11              // r2 = (dx*dx + dy*dy) + dz*dz
	VCMPPD  $4, Y13, Y11, Y12          // mask = r2 != 0 (NaN compares true, as in Go)
	VADDPD  0(SP), Y11, Y11
	VSQRTPD Y11, Y11
	VDIVPD  Y11, Y14, Y11              // inv = 1/sqrt(r2 + eps2)
	VMULPD  Y11, Y10, Y10              // t = gm*inv
	VSUBPD  Y10, Y3, Y15
	VBLENDVPD Y12, Y15, Y3, Y3         // phi -= t
	VMULPD  Y11, Y10, Y10
	VMULPD  Y11, Y10, Y10              // f = (t*inv)*inv
	VMULPD  Y7, Y10, Y7
	VSUBPD  Y7, Y4, Y7
	VBLENDVPD Y12, Y7, Y4, Y4          // acc.X -= f*dx
	VMULPD  Y8, Y10, Y8
	VSUBPD  Y8, Y5, Y8
	VBLENDVPD Y12, Y8, Y5, Y5
	VMULPD  Y9, Y10, Y9
	VSUBPD  Y9, Y6, Y9
	VBLENDVPD Y12, Y9, Y6, Y6
	ADDQ $24, BX
	ADDQ $8, CX
	DECQ DX
	JNZ  gloop

	VMOVUPD Y3, (DI)
	STORE4(0, R8, X4, Y4, X15)
	STORE4(8, R8, X5, Y5, X15)
	STORE4(16, R8, X6, Y6, X15)
	ADDQ $96, SI
	ADDQ $32, DI
	ADDQ $96, R8
	DECQ R9
	JNZ  gblock

	VZEROUPPER
gdone:
	RET

// func stokesletP2PBlocks(xt, vel *geom.Vec3, nblk int, ys, fs *geom.Vec3, ns int, e2, twoE2, c0 float64)
//
// Y0-2 = target x,y,z   Y3-5 = vel x,y,z
// 0(SP) = e2 x4, 32(SP) = 2*e2 x4, 64(SP) = c0 x4, 96(SP) = 0 x4.
TEXT ·stokesletP2PBlocks(SB), NOSPLIT, $128-72
	MOVQ xt+0(FP), SI
	MOVQ vel+8(FP), DI
	MOVQ nblk+16(FP), R9
	MOVQ ns+40(FP), R10
	TESTQ R9, R9
	JLE  sdone
	TESTQ R10, R10
	JLE  sdone

	VBROADCASTSD e2+48(FP), Y15
	VMOVUPD Y15, 0(SP)
	VBROADCASTSD twoE2+56(FP), Y15
	VMOVUPD Y15, 32(SP)
	VBROADCASTSD c0+64(FP), Y15
	VMOVUPD Y15, 64(SP)
	VXORPD  Y15, Y15, Y15
	VMOVUPD Y15, 96(SP)

sblock:
	LOAD4(0, SI, X0, Y0, X15)
	LOAD4(8, SI, X1, Y1, X15)
	LOAD4(16, SI, X2, Y2, X15)
	LOAD4(0, DI, X3, Y3, X15)
	LOAD4(8, DI, X4, Y4, X15)
	LOAD4(16, DI, X5, Y5, X15)
	MOVQ ys+24(FP), BX
	MOVQ fs+32(FP), CX
	MOVQ R10, DX

sloop:
	VBROADCASTSD 0(BX), Y6
	VBROADCASTSD 8(BX), Y7
	VBROADCASTSD 16(BX), Y8
	VBROADCASTSD 0(CX), Y9             // f
	VBROADCASTSD 8(CX), Y10
	VBROADCASTSD 16(CX), Y11
	VSUBPD  Y6, Y0, Y6                 // d = x - y
	VSUBPD  Y7, Y1, Y7
	VSUBPD  Y8, Y2, Y8
	VMULPD  Y6, Y6, Y12
	VMULPD  Y7, Y7, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y8, Y8, Y13
	VADDPD  Y13, Y12, Y12              // r2 = (dx*dx + dy*dy) + dz*dz
	VMULPD  Y9, Y6, Y13
	VMULPD  Y10, Y7, Y14
	VADDPD  Y14, Y13, Y13
	VMULPD  Y11, Y8, Y14
	VADDPD  Y14, Y13, Y13              // dot = (dx*fx + dy*fy) + dz*fz
	VADDPD  0(SP), Y12, Y14            // den = r2 + e2
	VSQRTPD Y14, Y15
	VMULPD  Y15, Y14, Y14              // den15 = den*sqrt(den)
	VMOVUPD 64(SP), Y15
	VDIVPD  Y14, Y15, Y15              // c = c0/den15
	VCMPPD  $4, 96(SP), Y14, Y14       // mask = den15 != 0
	VADDPD  32(SP), Y12, Y12
	VMULPD  Y15, Y12, Y12              // h1 = (r2 + 2*e2)*c
	VMULPD  Y15, Y13, Y13              // h2 = dot*c
	VMULPD  Y12, Y9, Y15
	VMULPD  Y13, Y6, Y9
	VADDPD  Y9, Y15, Y15               // fx*h1 + dx*h2
	VADDPD  Y15, Y3, Y15
	VBLENDVPD Y14, Y15, Y3, Y3         // v.X += ...
	VMULPD  Y12, Y10, Y15
	VMULPD  Y13, Y7, Y10
	VADDPD  Y10, Y15, Y15
	VADDPD  Y15, Y4, Y15
	VBLENDVPD Y14, Y15, Y4, Y4
	VMULPD  Y12, Y11, Y15
	VMULPD  Y13, Y8, Y11
	VADDPD  Y11, Y15, Y15
	VADDPD  Y15, Y5, Y15
	VBLENDVPD Y14, Y15, Y5, Y5
	ADDQ $24, BX
	ADDQ $24, CX
	DECQ DX
	JNZ  sloop

	STORE4(0, DI, X3, Y3, X15)
	STORE4(8, DI, X4, Y4, X15)
	STORE4(16, DI, X5, Y5, X15)
	ADDQ $96, SI
	ADDQ $96, DI
	DECQ R9
	JNZ  sblock

	VZEROUPPER
sdone:
	RET
