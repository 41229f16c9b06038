//go:build amd64

#include "textflag.h"
#include "go_asm.h"

// Packed P2P row and pair bodies: four target bodies per ymm register, one
// lane each, against a row's source spans in order. Every lane performs exactly
// the IEEE operations of the scalar reference (Gravity.P2PScalar,
// Stokeslet.P2PScalar, run span by span) in the same order:
// VSQRTPD/VDIVPD are correctly rounded per lane, there is no FMA, and the
// scalar loop's `continue` is a mask ANDed onto the finished contribution,
// which is then subtracted: a skipped lane subtracts +0, and x - (+0) == x
// for every x, -0 and NaN included.
//
// Plan 9 operand order: VSUBPD b, a, d is d = a - b; VDIVPD b, a, d is
// d = a / b; VANDPD m, a, d is d = a & m.

// 1.0 and -0.0 in every lane.
DATA one4<>+0(SB)/8, $0x3FF0000000000000
DATA one4<>+8(SB)/8, $0x3FF0000000000000
DATA one4<>+16(SB)/8, $0x3FF0000000000000
DATA one4<>+24(SB)/8, $0x3FF0000000000000
GLOBL one4<>(SB), RODATA|NOPTR, $32

DATA negzero4<>+0(SB)/8, $0x8000000000000000
DATA negzero4<>+8(SB)/8, $0x8000000000000000
DATA negzero4<>+16(SB)/8, $0x8000000000000000
DATA negzero4<>+24(SB)/8, $0x8000000000000000
GLOBL negzero4<>(SB), RODATA|NOPTR, $32

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

// SPAN loads the span at R11 — two slices, at offsets pos and pay — into
// BX (positions), CX (payload) and DX (the shorter of the two lengths),
// and jumps to empty when DX is zero.
#define SPAN(pos, pay, empty) \
	MOVQ pos(R11), BX \
	MOVQ (pos+8)(R11), DX \
	MOVQ pay(R11), CX \
	MOVQ (pay+8)(R11), AX \
	CMPQ AX, DX \
	CMOVQLT AX, DX \
	TESTQ DX, DX \
	JLE  empty

// func gravityP2PRow(xt *geom.Vec3, phi *float64, acc *geom.Vec3, nblk int, spans *GravitySpan, nspan int, eps2, bigG float64)
//
// nblk blocks of four consecutive targets, each against the nspan spans in
// order; a block's registers stay live across span boundaries.
// Y0-2 = target x,y,z   Y3 = phi   Y4-6 = acc x,y,z   Y13 = 0   Y14 = 1
// 0(SP) = eps2 x4, 32(SP) = G x4.
TEXT ·gravityP2PRow(SB), NOSPLIT, $64-64
	MOVQ xt+0(FP), SI
	MOVQ phi+8(FP), DI
	MOVQ acc+16(FP), R8
	MOVQ nblk+24(FP), R9
	MOVQ nspan+40(FP), R10
	TESTQ R9, R9
	JLE  gdone
	TESTQ R10, R10
	JLE  gdone

	VBROADCASTSD eps2+48(FP), Y13
	VMOVUPD Y13, 0(SP)
	VBROADCASTSD bigG+56(FP), Y13
	VMOVUPD Y13, 32(SP)
	VXORPD  Y13, Y13, Y13
	VMOVUPD one4<>(SB), Y14

gblock:
	LOAD4(0, SI, X0, Y0, X15)
	LOAD4(8, SI, X1, Y1, X15)
	LOAD4(16, SI, X2, Y2, X15)
	VMOVUPD (DI), Y3
	LOAD4(0, R8, X4, Y4, X15)
	LOAD4(8, R8, X5, Y5, X15)
	LOAD4(16, R8, X6, Y6, X15)
	MOVQ spans+32(FP), R11
	MOVQ R10, R12

gspan:
	SPAN(GravitySpan_Pos, GravitySpan_Mass, gnext)

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
	VANDPD  Y12, Y10, Y15
	VSUBPD  Y15, Y3, Y3                // phi -= t
	VMULPD  Y11, Y10, Y10
	VMULPD  Y11, Y10, Y10              // f = (t*inv)*inv
	VMULPD  Y7, Y10, Y7
	VANDPD  Y12, Y7, Y7
	VSUBPD  Y7, Y4, Y4                 // acc.X -= f*dx
	VMULPD  Y8, Y10, Y8
	VANDPD  Y12, Y8, Y8
	VSUBPD  Y8, Y5, Y5
	VMULPD  Y9, Y10, Y9
	VANDPD  Y12, Y9, Y9
	VSUBPD  Y9, Y6, Y6
	ADDQ $24, BX
	ADDQ $8, CX
	DECQ DX
	JNZ  gloop

gnext:
	ADDQ $GravitySpan__size, R11
	DECQ R12
	JNZ  gspan

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

// func gravityP2PPair(xt *geom.Vec3, mt *float64, phi *float64, acc *geom.Vec3, nblk int, pairs *GravityPair, npair int, lanes *float64, valid *[4]uint64, eps2, bigG float64)
//
// gravityP2PRow's walk, and from the same r2, mask and inv each lane's
// reaction on the source: t' = (G*m_target)*inv and f' = (t'*inv)*inv,
// subtracted, masked by the pair mask and the valid lanes, from the
// source's lane sums at R13 (potential, then acceleration x, y, z, 32 B
// each); the acceleration term is (-f')*d, which is f'*(y - x) exactly.
// Y0-2 = target x,y,z   Y3 = phi   Y4-6 = acc x,y,z   Y14 = 1
// 0(SP) = eps2 x4, 32(SP) = G x4, 64(SP) = G*m of the block's targets,
// 96(SP) = valid, 128(SP) = 0 x4, 160(SP) = the next block's masses.
TEXT ·gravityP2PPair(SB), NOSPLIT, $168-88
	MOVQ xt+0(FP), SI
	MOVQ phi+16(FP), DI
	MOVQ acc+24(FP), R8
	MOVQ nblk+32(FP), R9
	MOVQ npair+48(FP), R10
	TESTQ R9, R9
	JLE  pdone
	TESTQ R10, R10
	JLE  pdone

	VBROADCASTSD eps2+72(FP), Y13
	VMOVUPD Y13, 0(SP)
	VBROADCASTSD bigG+80(FP), Y13
	VMOVUPD Y13, 32(SP)
	MOVQ valid+64(FP), AX
	VMOVUPD (AX), Y13
	VMOVUPD Y13, 96(SP)
	VXORPD  Y13, Y13, Y13
	VMOVUPD Y13, 128(SP)
	MOVQ mt+8(FP), AX
	MOVQ AX, 160(SP)
	VMOVUPD one4<>(SB), Y14

pblock:
	LOAD4(0, SI, X0, Y0, X15)
	LOAD4(8, SI, X1, Y1, X15)
	LOAD4(16, SI, X2, Y2, X15)
	VMOVUPD (DI), Y3
	LOAD4(0, R8, X4, Y4, X15)
	LOAD4(8, R8, X5, Y5, X15)
	LOAD4(16, R8, X6, Y6, X15)
	MOVQ 160(SP), AX
	VMOVUPD (AX), Y15
	VMULPD  32(SP), Y15, Y15           // G*m of the targets
	VMOVUPD Y15, 64(SP)
	ADDQ $32, AX
	MOVQ AX, 160(SP)
	MOVQ lanes+56(FP), R13
	MOVQ pairs+40(FP), R11
	MOVQ R10, R12

pspan:
	SPAN(GravityPair_Pos, GravityPair_Mass, pnext)

ploop:
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
	VCMPPD  $4, 128(SP), Y11, Y12      // mask = r2 != 0
	VADDPD  0(SP), Y11, Y11
	VSQRTPD Y11, Y11
	VDIVPD  Y11, Y14, Y11              // inv = 1/sqrt(r2 + eps2)
	VMULPD  Y11, Y10, Y10              // t = gm*inv
	VANDPD  Y12, Y10, Y15
	VSUBPD  Y15, Y3, Y3                // target phi -= t
	VMULPD  Y11, Y10, Y10
	VMULPD  Y11, Y10, Y10              // f = (t*inv)*inv
	VMULPD  Y7, Y10, Y15
	VANDPD  Y12, Y15, Y15
	VSUBPD  Y15, Y4, Y4                // target acc.X -= f*dx
	VMULPD  Y8, Y10, Y15
	VANDPD  Y12, Y15, Y15
	VSUBPD  Y15, Y5, Y5
	VMULPD  Y9, Y10, Y15
	VANDPD  Y12, Y15, Y15
	VSUBPD  Y15, Y6, Y6
	VANDPD  96(SP), Y12, Y12           // the reaction: real lanes only
	VMULPD  64(SP), Y11, Y10           // t' = (G*m_target)*inv
	VANDPD  Y12, Y10, Y15
	VMOVUPD 0(R13), Y13
	VSUBPD  Y15, Y13, Y13
	VMOVUPD Y13, 0(R13)                // lane phi -= t'
	VMULPD  Y11, Y10, Y10
	VMULPD  Y11, Y10, Y10              // f' = (t'*inv)*inv
	VXORPD  negzero4<>(SB), Y10, Y10   // -f'
	VMULPD  Y7, Y10, Y7
	VANDPD  Y12, Y7, Y7
	VMOVUPD 32(R13), Y13
	VSUBPD  Y7, Y13, Y13
	VMOVUPD Y13, 32(R13)               // lane acc.X -= f'*(y - x)
	VMULPD  Y8, Y10, Y8
	VANDPD  Y12, Y8, Y8
	VMOVUPD 64(R13), Y13
	VSUBPD  Y8, Y13, Y13
	VMOVUPD Y13, 64(R13)
	VMULPD  Y9, Y10, Y9
	VANDPD  Y12, Y9, Y9
	VMOVUPD 96(R13), Y13
	VSUBPD  Y9, Y13, Y13
	VMOVUPD Y13, 96(R13)
	ADDQ $24, BX
	ADDQ $8, CX
	ADDQ $128, R13
	DECQ DX
	JNZ  ploop

pnext:
	ADDQ $GravityPair__size, R11
	DECQ R12
	JNZ  pspan

	VMOVUPD Y3, (DI)
	STORE4(0, R8, X4, Y4, X15)
	STORE4(8, R8, X5, Y5, X15)
	STORE4(16, R8, X6, Y6, X15)
	ADDQ $96, SI
	ADDQ $32, DI
	ADDQ $96, R8
	DECQ R9
	JNZ  pblock

	VZEROUPPER
pdone:
	RET

// func gravityP2PReact(xt *geom.Vec3, mt *float64, nblk int, pairs *GravityPair, npair int, lanes *float64, valid *[4]uint64, eps2, bigG float64)
//
// gravityP2PPair's reaction half alone, with the same operations in the
// same order: the targets' accumulators are neither read nor written, so
// the constants stay in registers.
// Y0-2 = target x,y,z   Y3 = G*m of the block's targets   Y4 = valid
// Y5 = 0   Y6 = eps2   Y14 = 1   DI = the next block's masses.
TEXT ·gravityP2PReact(SB), NOSPLIT, $0-72
	MOVQ xt+0(FP), SI
	MOVQ mt+8(FP), DI
	MOVQ nblk+16(FP), R9
	MOVQ npair+32(FP), R10
	TESTQ R9, R9
	JLE  rdone
	TESTQ R10, R10
	JLE  rdone

	MOVQ valid+48(FP), AX
	VMOVUPD (AX), Y4
	VXORPD  Y5, Y5, Y5
	VBROADCASTSD eps2+56(FP), Y6
	VMOVUPD one4<>(SB), Y14

rblock:
	LOAD4(0, SI, X0, Y0, X15)
	LOAD4(8, SI, X1, Y1, X15)
	LOAD4(16, SI, X2, Y2, X15)
	VBROADCASTSD bigG+64(FP), Y3
	VMULPD  (DI), Y3, Y3               // G*m of the targets
	MOVQ lanes+40(FP), R13
	MOVQ pairs+24(FP), R11
	MOVQ R10, R12

rspan:
	SPAN(GravityPair_Pos, GravityPair_Mass, rnext)

rloop:
	VBROADCASTSD 0(BX), Y7
	VBROADCASTSD 8(BX), Y8
	VBROADCASTSD 16(BX), Y9
	VSUBPD  Y7, Y0, Y7                 // d = x - y
	VSUBPD  Y8, Y1, Y8
	VSUBPD  Y9, Y2, Y9
	VMULPD  Y7, Y7, Y11
	VMULPD  Y8, Y8, Y12
	VADDPD  Y12, Y11, Y11
	VMULPD  Y9, Y9, Y12
	VADDPD  Y12, Y11, Y11              // r2 = (dx*dx + dy*dy) + dz*dz
	VCMPPD  $4, Y5, Y11, Y12           // mask = r2 != 0
	VANDPD  Y4, Y12, Y12               // real lanes only
	VADDPD  Y6, Y11, Y11
	VSQRTPD Y11, Y11
	VDIVPD  Y11, Y14, Y11              // inv = 1/sqrt(r2 + eps2)
	VMULPD  Y3, Y11, Y10               // t' = (G*m_target)*inv
	VANDPD  Y12, Y10, Y15
	VMOVUPD 0(R13), Y13
	VSUBPD  Y15, Y13, Y13              // reaction only: lane phi -= t'
	VMOVUPD Y13, 0(R13)
	VMULPD  Y11, Y10, Y10
	VMULPD  Y11, Y10, Y10              // f' = (t'*inv)*inv
	VXORPD  negzero4<>(SB), Y10, Y10   // reaction only: -f'
	VMULPD  Y7, Y10, Y7
	VANDPD  Y12, Y7, Y7
	VMOVUPD 32(R13), Y13
	VSUBPD  Y7, Y13, Y13
	VMOVUPD Y13, 32(R13)               // lane acc.X -= f'*(y - x)
	VMULPD  Y8, Y10, Y8
	VANDPD  Y12, Y8, Y8
	VMOVUPD 64(R13), Y13
	VSUBPD  Y8, Y13, Y13
	VMOVUPD Y13, 64(R13)
	VMULPD  Y9, Y10, Y9
	VANDPD  Y12, Y9, Y9
	VMOVUPD 96(R13), Y13
	VSUBPD  Y9, Y13, Y13
	VMOVUPD Y13, 96(R13)
	ADDQ $24, BX
	ADDQ $128, R13
	DECQ DX
	JNZ  rloop

rnext:
	ADDQ $GravityPair__size, R11
	DECQ R12
	JNZ  rspan

	ADDQ $96, SI
	ADDQ $32, DI
	DECQ R9
	JNZ  rblock

	VZEROUPPER
rdone:
	RET

// func gravityFoldLanes(pairs *GravityPair, npair int, lanes *float64)
//
// Adds each source's four lane sums, folded as (l0 + l1) + (l2 + l3) per
// component, to its React entry: two horizontal adds pair the lanes
// within each 128-bit half, two cross-half permutes line the half sums up
// as (potential, x, y, z), and one add joins the halves.
TEXT ·gravityFoldLanes(SB), NOSPLIT, $0-24
	MOVQ pairs+0(FP), R11
	MOVQ npair+8(FP), R12
	MOVQ lanes+16(FP), R13
	TESTQ R12, R12
	JLE  fdone

fspan:
	MOVQ (GravityPair_Pos+8)(R11), DX
	MOVQ (GravityPair_Mass+8)(R11), AX
	CMPQ AX, DX
	CMOVQLT AX, DX
	MOVQ GravityPair_React(R11), BX
	TESTQ DX, DX
	JLE  fnext

floop:
	VMOVUPD 0(R13), Y0
	VMOVUPD 32(R13), Y1
	VMOVUPD 64(R13), Y2
	VMOVUPD 96(R13), Y3
	VHADDPD Y1, Y0, Y0                 // phi01 x01 phi23 x23
	VHADDPD Y3, Y2, Y2                 // y01 z01 y23 z23
	VPERM2F128 $0x20, Y2, Y0, Y1       // phi01 x01 y01 z01
	VPERM2F128 $0x31, Y2, Y0, Y3       // phi23 x23 y23 z23
	VADDPD  Y3, Y1, Y1
	VADDPD  (BX), Y1, Y1
	VMOVUPD Y1, (BX)
	ADDQ $128, R13
	ADDQ $32, BX
	DECQ DX
	JNZ  floop

fnext:
	ADDQ $GravityPair__size, R11
	DECQ R12
	JNZ  fspan

	VZEROUPPER
fdone:
	RET

// func stokesletP2PRow(xt, vel *geom.Vec3, nblk int, spans *StokesletSpan, nspan int, e2, twoE2, c0 float64)
//
// The contribution u = f*h1 + d*h2 is negated by its sign bit, masked and
// subtracted: v - (-u) is v + u for every v, while v - (+0) keeps a
// skipped lane's v, -0 included. (Carrying -c0 instead would negate each
// product exactly, but not their sum when it cancels to +0 — then
// -0 - (+0) is -0 where the reference's -0 + (+0) is +0.)
// Y0-2 = target x,y,z   Y3-5 = vel x,y,z
// 0(SP) = e2 x4, 32(SP) = 2*e2 x4, 64(SP) = c0 x4, 96(SP) = 0 x4.
TEXT ·stokesletP2PRow(SB), NOSPLIT, $128-64
	MOVQ xt+0(FP), SI
	MOVQ vel+8(FP), DI
	MOVQ nblk+16(FP), R9
	MOVQ nspan+32(FP), R10
	TESTQ R9, R9
	JLE  sdone
	TESTQ R10, R10
	JLE  sdone

	VBROADCASTSD e2+40(FP), Y15
	VMOVUPD Y15, 0(SP)
	VBROADCASTSD twoE2+48(FP), Y15
	VMOVUPD Y15, 32(SP)
	VBROADCASTSD c0+56(FP), Y15
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
	MOVQ spans+24(FP), R11
	MOVQ R10, R12

sspan:
	SPAN(StokesletSpan_Pos, StokesletSpan_Force, snext)

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
	VXORPD  negzero4<>(SB), Y15, Y15
	VANDPD  Y14, Y15, Y15
	VSUBPD  Y15, Y3, Y3                // v.X += ...
	VMULPD  Y12, Y10, Y15
	VMULPD  Y13, Y7, Y10
	VADDPD  Y10, Y15, Y15
	VXORPD  negzero4<>(SB), Y15, Y15
	VANDPD  Y14, Y15, Y15
	VSUBPD  Y15, Y4, Y4
	VMULPD  Y12, Y11, Y15
	VMULPD  Y13, Y8, Y11
	VADDPD  Y11, Y15, Y15
	VXORPD  negzero4<>(SB), Y15, Y15
	VANDPD  Y14, Y15, Y15
	VSUBPD  Y15, Y5, Y5
	ADDQ $24, BX
	ADDQ $24, CX
	DECQ DX
	JNZ  sloop

snext:
	ADDQ $StokesletSpan__size, R11
	DECQ R12
	JNZ  sspan

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

// func stokesletP2PPair(xt, ft, vel *geom.Vec3, nblk int, pairs *StokesletPair, npair int, lanes *float64, valid *[4]uint64, e2, twoE2, c0 float64)
//
// stokesletP2PRow's walk, its loop body unchanged, and from the same d,
// h1 and c each lane's reaction on the source, G(d)·f_target (the kernel
// is even in d): h2' = (d·f_target)*c and f_target*h1 + d*h2', masked by
// the pair mask and the valid lanes and added to the source's lane sums
// at R13 (x, y, z, 32 B each). A lane sum starts at +0 and a sum from +0
// never becomes -0, so a masked lane adds +0 and keeps its sum.
// Y0-2 = target x,y,z   Y3-5 = vel x,y,z
// 0(SP) = e2 x4, 32(SP) = 2*e2 x4, 64(SP) = c0 x4, 96(SP) = 0 x4,
// 128(SP) = valid, 160/192/224(SP) = the block's target forces x, y, z,
// 256(SP) = c, 288(SP) = the next block's forces.
TEXT ·stokesletP2PPair(SB), NOSPLIT, $296-88
	MOVQ xt+0(FP), SI
	MOVQ vel+16(FP), DI
	MOVQ nblk+24(FP), R9
	MOVQ npair+40(FP), R10
	TESTQ R9, R9
	JLE  tpdone
	TESTQ R10, R10
	JLE  tpdone

	VBROADCASTSD e2+64(FP), Y15
	VMOVUPD Y15, 0(SP)
	VBROADCASTSD twoE2+72(FP), Y15
	VMOVUPD Y15, 32(SP)
	VBROADCASTSD c0+80(FP), Y15
	VMOVUPD Y15, 64(SP)
	VXORPD  Y15, Y15, Y15
	VMOVUPD Y15, 96(SP)
	MOVQ valid+56(FP), AX
	VMOVUPD (AX), Y15
	VMOVUPD Y15, 128(SP)
	MOVQ ft+8(FP), AX
	MOVQ AX, 288(SP)

tpblock:
	LOAD4(0, SI, X0, Y0, X15)
	LOAD4(8, SI, X1, Y1, X15)
	LOAD4(16, SI, X2, Y2, X15)
	LOAD4(0, DI, X3, Y3, X15)
	LOAD4(8, DI, X4, Y4, X15)
	LOAD4(16, DI, X5, Y5, X15)
	MOVQ 288(SP), AX
	LOAD4(0, AX, X6, Y6, X15)
	VMOVUPD Y6, 160(SP)
	LOAD4(8, AX, X6, Y6, X15)
	VMOVUPD Y6, 192(SP)
	LOAD4(16, AX, X6, Y6, X15)
	VMOVUPD Y6, 224(SP)
	ADDQ $96, AX
	MOVQ AX, 288(SP)
	MOVQ lanes+48(FP), R13
	MOVQ pairs+32(FP), R11
	MOVQ R10, R12

tpspan:
	SPAN(StokesletPair_Pos, StokesletPair_Force, tpnext)

tploop:
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
	VADDPD  Y14, Y13, Y13              // dot = (dx*fx + dy*fy) + dz*fz, f the source's
	VADDPD  0(SP), Y12, Y14            // den = r2 + e2
	VSQRTPD Y14, Y15
	VMULPD  Y15, Y14, Y14              // den15 = den*sqrt(den)
	VMOVUPD 64(SP), Y15
	VDIVPD  Y14, Y15, Y15              // c = c0/den15
	VCMPPD  $4, 96(SP), Y14, Y14       // mask = den15 != 0
	VADDPD  32(SP), Y12, Y12           // r2 + 2*e2
	VMULPD  Y15, Y12, Y12              // h1 = (r2 + 2*e2)*c
	VMULPD  Y15, Y13, Y13              // h2 = dot*c
	VMOVUPD Y15, 256(SP)               // c, for the reaction
	VMULPD  Y12, Y9, Y15
	VMULPD  Y13, Y6, Y9
	VADDPD  Y9, Y15, Y15               // fx*h1 + dx*h2
	VXORPD  negzero4<>(SB), Y15, Y15
	VANDPD  Y14, Y15, Y15
	VSUBPD  Y15, Y3, Y3                // target v.X += ...
	VMULPD  Y12, Y10, Y15
	VMULPD  Y13, Y7, Y10
	VADDPD  Y10, Y15, Y15
	VXORPD  negzero4<>(SB), Y15, Y15
	VANDPD  Y14, Y15, Y15
	VSUBPD  Y15, Y4, Y4
	VMULPD  Y12, Y11, Y15
	VMULPD  Y13, Y8, Y11
	VADDPD  Y11, Y15, Y15
	VXORPD  negzero4<>(SB), Y15, Y15
	VANDPD  Y14, Y15, Y15
	VSUBPD  Y15, Y5, Y5
	VANDPD  128(SP), Y14, Y14          // the reaction: real lanes only
	VMULPD  160(SP), Y6, Y9
	VMULPD  192(SP), Y7, Y10
	VADDPD  Y10, Y9, Y9
	VMULPD  224(SP), Y8, Y10
	VADDPD  Y10, Y9, Y9                // dot' = (dx*gx + dy*gy) + dz*gz
	VMULPD  256(SP), Y9, Y9            // h2' = dot'*c
	VMULPD  160(SP), Y12, Y15
	VMULPD  Y9, Y6, Y6
	VADDPD  Y6, Y15, Y15               // gx*h1 + dx*h2'
	VANDPD  Y14, Y15, Y15
	VADDPD  0(R13), Y15, Y15           // lane x += ...
	VMOVUPD Y15, 0(R13)
	VMULPD  192(SP), Y12, Y15
	VMULPD  Y9, Y7, Y7
	VADDPD  Y7, Y15, Y15
	VANDPD  Y14, Y15, Y15
	VADDPD  32(R13), Y15, Y15          // lane y += ...
	VMOVUPD Y15, 32(R13)
	VMULPD  224(SP), Y12, Y15
	VMULPD  Y9, Y8, Y8
	VADDPD  Y8, Y15, Y15
	VANDPD  Y14, Y15, Y15
	VADDPD  64(R13), Y15, Y15          // lane z += ...
	VMOVUPD Y15, 64(R13)
	ADDQ $24, BX
	ADDQ $24, CX
	ADDQ $96, R13
	DECQ DX
	JNZ  tploop

tpnext:
	ADDQ $StokesletPair__size, R11
	DECQ R12
	JNZ  tpspan

	STORE4(0, DI, X3, Y3, X15)
	STORE4(8, DI, X4, Y4, X15)
	STORE4(16, DI, X5, Y5, X15)
	ADDQ $96, SI
	ADDQ $96, DI
	DECQ R9
	JNZ  tpblock

	VZEROUPPER
tpdone:
	RET

// func stokesletFoldLanes(pairs *StokesletPair, npair int, lanes *float64)
//
// gravityFoldLanes for three components: the z lane sums are paired with
// zeros, and the folded (x, y) and z go back to the 24 B React entry as a
// 16 B and an 8 B store.
TEXT ·stokesletFoldLanes(SB), NOSPLIT, $0-24
	MOVQ pairs+0(FP), R11
	MOVQ npair+8(FP), R12
	MOVQ lanes+16(FP), R13
	TESTQ R12, R12
	JLE  tfdone
	VXORPD  Y4, Y4, Y4

tfspan:
	MOVQ (StokesletPair_Pos+8)(R11), DX
	MOVQ (StokesletPair_Force+8)(R11), AX
	CMPQ AX, DX
	CMOVQLT AX, DX
	MOVQ StokesletPair_React(R11), BX
	TESTQ DX, DX
	JLE  tfnext

tfloop:
	VMOVUPD 0(R13), Y0
	VMOVUPD 32(R13), Y1
	VMOVUPD 64(R13), Y2
	VHADDPD Y1, Y0, Y0                 // x01 y01 x23 y23
	VHADDPD Y4, Y2, Y2                 // z01 0 z23 0
	VPERM2F128 $0x20, Y2, Y0, Y1       // x01 y01 z01 0
	VPERM2F128 $0x31, Y2, Y0, Y3       // x23 y23 z23 0
	VADDPD  Y3, Y1, Y1
	VADDPD  (BX), X1, X0
	VMOVUPD X0, (BX)
	VEXTRACTF128 $1, Y1, X2
	VADDSD  16(BX), X2, X2
	VMOVSD  X2, 16(BX)
	ADDQ $96, R13
	ADDQ $24, BX
	DECQ DX
	JNZ  tfloop

tfnext:
	ADDQ $StokesletPair__size, R11
	DECQ R12
	JNZ  tfspan

	VZEROUPPER
tfdone:
	RET
