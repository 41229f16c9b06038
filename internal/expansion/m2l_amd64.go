//go:build amd64

package expansion

import "afmm/internal/cpu"

// packedOK is the CPUID verdict (internal/cpu): the packed M2L bodies of
// m2l_amd64.s need AVX2 and an OS that saves the ymm state. Without it
// m2lApply and m2lApply4 run their scalar stages. Tests flip it to run both
// dispatch states.
var packedOK = cpu.AVX2

// The bodies have no preemption points; one call is one stage of one
// translation (well under a microsecond at p = 12, tens at MaxOrder).

//go:noescape
func splitAVX2(p int, aRe, aIm *float64, src, zph *complex128)

// rotHalfAVX2 is rotateHalf with four consecutive outputs m' of one degree
// per register. A last group of a degree writes up to laneSlack floats past
// the degree's outputs: the next degree's slots, filled afterwards, or the
// slack behind the vector.
//
//go:noescape
func rotHalfAVX2(p int, outRe, outIm, inRe, inIm, half *float64, orderMajor int)

// axialAVX2 is the axial stage with four consecutive degrees j of one order
// per register, written order-major, from an axial row (laneRowInto).
// It reads rpow[0 : 2p+2+laneSlack] and overruns its outputs as rotHalfAVX2
// does, by order instead of by degree.
//
//go:noescape
func axialAVX2(p int, outRe, outIm, inRe, inIm, axbL, rpow *float64)

//go:noescape
func mergeAVX2(p int, l *complex128, bRe, bIm *float64, zph, tmp *complex128)

// The width-4 stages: the lanes are the four columns of one coefficient,
// so nothing is padded or overrun. The phases and radial powers are the
// columns' own, lane-major (colGeom).

//go:noescape
func split4AVX2(p int, aRe, aIm *[4]float64, s0, s1, s2, s3 *complex128, zph *[4]float64)

//go:noescape
func rotHalf4AVX2(p int, outRe, outIm, inRe, inIm *[4]float64, half *float64, orderMajor int)

//go:noescape
func axial4AVX2(p int, outRe, outIm, inRe, inIm *[4]float64, axbL *float64, rpow *[4]float64)

// geoLanesAVX2 is colGeom.fill on vector registers: it transposes the four
// columns' width-1 rows into the lane-major layout with whole-vector
// stores.
//
//go:noescape
func geoLanesAVX2(p int, zph, rpow *[4]float64, z0, z1, z2, z3 *complex128, r0, r1, r2, r3 *float64)

// merge4AVX2 adds the columns to l0..l3 in column order; the targets may
// repeat.
//
//go:noescape
func merge4AVX2(p int, l0, l1, l2, l3 *complex128, bRe, bIm, zph *[4]float64)

// m2lPacked is m2lApply on the packed bodies: split, rotate, translate
// axially, rotate back, merge, a -> b -> a -> b through the scratch as the
// scalar stages do. The reslices assert the slack the bodies read.
func (w *Workspace) m2lPacked(l Expansion, src []complex128, half []float64, zph []complex128, rpow, ax []float64) {
	p, r := l.P, w.rot
	aRe, aIm, bRe, bIm := &r.aRe[0], &r.aIm[0], &r.bRe[0], &r.bIm[0]
	_, _ = zph[:p+1+laneSlack], rpow[:2*p+2+laneSlack]
	splitAVX2(p, aRe, aIm, &src[0], &zph[0])
	rotHalfAVX2(p, bRe, bIm, aRe, aIm, &half[0], 0)
	axialAVX2(p, aRe, aIm, bRe, bIm, &ax[0], &rpow[0])
	rotHalfAVX2(p, bRe, bIm, aRe, aIm, &half[0], 1)
	mergeAVX2(p, &l.C[0], bRe, bIm, &zph[0], &r.zip[0])
}

// m2lPacked4 is m2lApply4 on the packed bodies.
func (w *Workspace) m2lPacked4(l, src *[4]Expansion, half []float64, zph, rpow [][4]float64, ax []float64) {
	p, r := l[0].P, w.rot
	aRe, aIm, bRe, bIm := &r.aRe4[0], &r.aIm4[0], &r.bRe4[0], &r.bIm4[0]
	_, _ = zph[:2*p+2], rpow[:2*p+2]
	split4AVX2(p, aRe, aIm, &src[0].C[0], &src[1].C[0], &src[2].C[0], &src[3].C[0], &zph[0])
	rotHalf4AVX2(p, bRe, bIm, aRe, aIm, &half[0], 0)
	axial4AVX2(p, aRe, aIm, bRe, bIm, &ax[0], &rpow[0])
	rotHalf4AVX2(p, bRe, bIm, aRe, aIm, &half[0], 1)
	merge4AVX2(p, &l[0].C[0], &l[1].C[0], &l[2].C[0], &l[3].C[0], bRe, bIm, &zph[0])
}
