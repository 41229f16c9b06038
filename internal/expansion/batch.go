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
//
// The kernel has two widths. Width 1 (m2lApply) translates one expansion;
// width 4 (m2lApply4, table form M2LBatchTable4) translates four
// expansions that share one geometry — the Stokeslet's four harmonic
// passes — through one read of the setup. Every column of the wide kernel
// executes m2lApply's operations in m2lApply's order, so a column equals
// the single-column translation of the same inputs bit for bit.

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

// M2LSource4 is one V-list pair of a four-column translation: the four
// source multipoles sharing the center From.
type M2LSource4 struct {
	M    [4]Expansion
	From geom.Vec3
}

// Sources4 is Sources for four-column pairs.
func (w *Workspace) Sources4(n int) []M2LSource4 {
	if cap(w.src4) < n {
		w.src4 = make([]M2LSource4, 0, 2*n)
	}
	return w.src4[:0]
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

// rotateHalf4 is rotateHalf over four columns: element i of a scratch
// vector holds coefficient i of all four, so one read of a P/Q entry feeds
// eight independent accumulators. Each column's sum runs over m in
// rotateHalf's order.
func rotateHalf4(p int, outRe, outIm, inRe, inIm [][4]float64, half []float64) {
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
			var r0, r1, r2, r3, i0, i1, i2, i3 float64
			for m := range xr {
				pv, qv := pr[m], qr[m]
				x, y := &xr[m], &xi[m]
				r0 += pv * x[0]
				r1 += pv * x[1]
				r2 += pv * x[2]
				r3 += pv * x[3]
				i0 += qv * y[0]
				i1 += qv * y[1]
				i2 += qv * y[2]
				i3 += qv * y[3]
			}
			outRe[o] = [4]float64{r0, r1, r2, r3}
			outIm[o] = [4]float64{i0, i1, i2, i3}
			o += p - mp
		}
	}
}

// m2lApply4 is m2lApply over four columns: src[c] translates into l[c]
// through one pass over half, zph and rpow. The axial coefficient
// ab[i]*rp[i] and each phase pair are computed once per term and applied to
// all four columns; per column the operations and their order are
// m2lApply's.
func (w *Workspace) m2lApply4(l, src *[4]Expansion, half []float64, zph []complex128, rpow []float64) {
	p := l[0].P
	r := w.rot
	pl := len(r.aRe)
	if r.aRe4 == nil { // this workspace's first four-column translation
		split := make([][4]float64, 4*pl)
		r.aRe4, r.aIm4, r.bRe4, r.bIm4 = split[:pl], split[pl:2*pl], split[2*pl:3*pl], split[3*pl:]
	}
	aRe, aIm, bRe, bIm := r.aRe4, r.aIm4, r.bRe4, r.bIm4
	s0, s1, s2, s3 := src[0].C[:pl], src[1].C[:pl], src[2].C[:pl], src[3].C[:pl]

	// Forward frame change: split D * e^{im phi} * src, rotate.
	for m := 0; m <= p; m++ {
		c, s := real(zph[m]), imag(zph[m])
		if m%2 == 1 {
			c, s = -c, -s
		}
		for n, i := m, sphharm.Idx(m, m); n <= p; n, i = n+1, i+n+1 {
			x0, y0 := real(s0[i]), imag(s0[i])
			x1, y1 := real(s1[i]), imag(s1[i])
			x2, y2 := real(s2[i]), imag(s2[i])
			x3, y3 := real(s3[i]), imag(s3[i])
			aRe[i] = [4]float64{x0*c - y0*s, x1*c - y1*s, x2*c - y2*s, x3*c - y3*s}
			aIm[i] = [4]float64{x0*s + y0*c, x1*s + y1*c, x2*s + y2*c, x3*s + y3*c}
		}
	}
	rotateHalf4(p, bRe, bIm, aRe, aIm, half)

	// Axial M2L along +z (see m2lApply).
	axb := w.axb
	o := 0 // Idx(j, k)
	for j := 0; j <= p; j++ {
		ko := 0 // order k's run of b, n = k..p
		for k := 0; k <= j; k++ {
			cnt := p - k + 1
			xr, xi := bRe[ko:ko+cnt], bIm[ko:][:cnt]
			ab, rp := axb[:cnt], rpow[j+k:][:cnt]
			axb, ko = axb[cnt:], ko+cnt
			var r0, r1, r2, r3, i0, i1, i2, i3 float64
			for i := range xr {
				c := ab[i] * rp[i]
				x, y := &xr[i], &xi[i]
				r0 += c * x[0]
				r1 += c * x[1]
				r2 += c * x[2]
				r3 += c * x[3]
				i0 += c * y[0]
				i1 += c * y[1]
				i2 += c * y[2]
				i3 += c * y[3]
			}
			if k%2 == 1 {
				r0, r1, r2, r3, i0, i1, i2, i3 = -r0, -r1, -r2, -r3, -i0, -i1, -i2, -i3
			}
			aRe[o] = [4]float64{r0, r1, r2, r3}
			aIm[o] = [4]float64{i0, i1, i2, i3}
			o++
		}
	}

	// Back rotation, conjugate phases; accumulate.
	rotateHalf4(p, bRe, bIm, aRe, aIm, half)
	l0, l1, l2, l3 := l[0].C[:pl], l[1].C[:pl], l[2].C[:pl], l[3].C[:pl]
	o = 0
	for m := 0; m <= p; m++ {
		c, s := real(zph[m]), imag(zph[m])
		for n, i := m, sphharm.Idx(m, m); n <= p; n, i = n+1, i+n+1 {
			x, y := &bRe[o], &bIm[o]
			l0[i] += complex(x[0]*c+y[0]*s, y[0]*c-x[0]*s)
			l1[i] += complex(x[1]*c+y[1]*s, y[1]*c-x[1]*s)
			l2[i] += complex(x[2]*c+y[2]*s, y[2]*c-x[2]*s)
			l3[i] += complex(x[3]*c+y[3]*s, y[3]*c-x[3]*s)
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
