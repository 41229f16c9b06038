package expansion

import (
	"afmm/internal/geom"
	"afmm/internal/sphharm"
)

// Batched M2L: the sweeps apply a target's whole V list in one call. Both
// batch forms run one kernel, m2lApply, over the per-direction setup of
// the rotation-accelerated translation — the half Wigner stack for the
// polar angle theta, the azimuthal phases e^{i m phi} and the radial
// powers 1/rho^k. M2LBatchTable (the production form) reads the setup from
// the shared class table; M2LBatch (the reference form) computes it per
// source into the workspace scratch.

// M2LSource pairs a source multipole expansion with its center for a
// batched translation. The source order must equal the target order.
type M2LSource struct {
	M    Expansion
	From geom.Vec3
}

// Sources returns the workspace's reusable V-list scratch, emptied, with
// room for n sources.
func (w *Workspace) Sources(n int) []M2LSource {
	if cap(w.srcs) < n {
		w.srcs = make([]M2LSource, 0, 2*n)
	}
	return w.srcs[:0]
}

// rotateHalf applies a half stack (see halfStackInto) to split
// coefficients, degree by degree:
//
//	Re out_n^{m'} = sum_{m=0..n} P_{m'm} Re in_n^m,
//	Im out_n^{m'} = sum_{m=0..n} Q_{m'm} Im in_n^m,
//
// the real form of out_n^{m'} = sum_{m=-n..n} w_{m'm} in_n^m under the
// packed storage's in_n^{-m} = conj(in_n^m). in is degree-major
// (sphharm.Idx); out is written order-major (m' = 0..p, n = m'..p), the
// order both consumers read: the axial step and the phase merge run per
// order.
func rotateHalf(p int, outRe, outIm, inRe, inIm, half []float64) {
	off, base := 0, 0
	for n := 0; n <= p; n++ {
		h := n + 1
		xr := inRe[base : base+h]
		xi := inIm[base:][:h]
		base += h
		o := n
		for mp := 0; mp <= n; mp++ {
			pr, qr := half[off:][:h], half[off+h:][:h]
			off += 2 * h
			var ar, ai float64
			for m, x := range xr {
				ar += pr[m] * x
				ai += qr[m] * xi[m]
			}
			outRe[o], outIm[o] = ar, ai
			o += p - mp
		}
	}
}

// m2lApply is the one M2L inner routine: rotate the source coefficients so
// the translation vector lies along +z, translate axially, rotate back,
// and accumulate into l — in real arithmetic on split re/im scratch. half
// is the half Wigner stack of the vector's theta, zph its e^{im phi}
// (m = 0..p), rpow its rho^-(i+1) (i = 0..2p+1).
//
// The forward rotation is the back rotation's transpose, and the signed
// stack satisfies w(m,m') = (-1)^{m+m'} w(m',m): forward = D back D,
// D = diag((-1)^m). Both D are exact sign flips, folded into the phase
// split and the axial write (the axial step is diagonal in the order k),
// so one half stack serves both rotations (THEORY §14).
func (w *Workspace) m2lApply(l Expansion, src []complex128, half []float64, zph []complex128, rpow []float64) {
	p := l.P
	r := w.rot
	aRe, aIm, bRe, bIm := r.aRe, r.aIm, r.bRe, r.bIm

	// Forward frame change: split D * e^{im phi} * src, rotate.
	for m := 0; m <= p; m++ {
		c, s := real(zph[m]), imag(zph[m])
		if m%2 == 1 {
			c, s = -c, -s
		}
		for n, i := m, sphharm.Idx(m, m); n <= p; n, i = n+1, i+n+1 {
			x, y := real(src[i]), imag(src[i])
			aRe[i], aIm[i] = x*c-y*s, x*s+y*c
		}
	}
	rotateHalf(p, bRe, bIm, aRe, aIm, half)

	// Axial M2L along +z:
	//   L_j^k = sum_n O_n^k (-1)^{|k|+j} A_n^k A_j^k (j+n)! / rho^{j+n+1}
	axb := w.axb
	o := 0 // Idx(j, k)
	for j := 0; j <= p; j++ {
		ko := 0 // order k's run of b, n = k..p
		for k := 0; k <= j; k++ {
			cnt := p - k + 1
			xr, xi := bRe[ko:ko+cnt], bIm[ko:][:cnt]
			ab, rp := axb[:cnt], rpow[j+k:][:cnt]
			axb, ko = axb[cnt:], ko+cnt
			var ar, ai float64
			for i, x := range xr {
				c := ab[i] * rp[i]
				ar += c * x
				ai += c * xi[i]
			}
			if k%2 == 1 {
				ar, ai = -ar, -ai
			}
			aRe[o], aIm[o] = ar, ai
			o++
		}
	}

	// Back rotation, conjugate phases; accumulate.
	rotateHalf(p, bRe, bIm, aRe, aIm, half)
	o = 0
	for m := 0; m <= p; m++ {
		c, s := real(zph[m]), imag(zph[m])
		for n, i := m, sphharm.Idx(m, m); n <= p; n, i = n+1, i+n+1 {
			l.C[i] += complex(bRe[o]*c+bIm[o]*s, bIm[o]*c-bRe[o]*s)
			o++
		}
	}
}

// M2LBatch accumulates into l the local expansions at `to` of every source
// multipole in srcs: the uncached, allocation-free reference form of
// M2LBatchTable, equivalent to calling M2LRotated once per source. Sources
// and target must have the workspace's order.
func (w *Workspace) M2LBatch(l Expansion, to geom.Vec3, srcs []M2LSource) {
	p := l.P
	r := w.rot
	for _, s := range srcs {
		rho, theta, phi := s.From.Sub(to).Spherical()
		r.halfStackInto(r.half, p, theta)
		fillPhases(r.zph, phi)
		fillInvPowers(r.rpow, rho)
		w.m2lApply(l, s.M.C, r.half, r.zph, r.rpow)
	}
}
