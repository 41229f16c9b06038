package expansion

import (
	"afmm/internal/geom"
	"afmm/internal/sphharm"
)

// Batched M2L: the sweeps apply a target's whole V list in one call. Both
// batch forms run one kernel, m2lApply, over the per-direction setup of
// the rotation-accelerated translation — the half Wigner stack for the
// polar angle theta, the azimuthal phases e^{i m phi} and the radial
// powers 1/rho^k — with the M2L axial row (axialBase). M2LBatchTable (the
// production form) reads the setup from the shared class table; M2LBatch
// computes it per source into the workspace scratch: the uncached reference
// the table forms are held to, bit for bit, and the table-free sweeps of the
// solvers' serial references run.
// M2M and L2L run the same kernel with their own axial rows (rotation.go).
//
// The kernel has two widths. Width 1 (m2lApply) translates one expansion;
// width 4 (m2lApply4) translates four expansions that share one theta —
// one read of the half stack, the setup's expensive factor — each column
// with its own phases and radial powers (colGeom). Two table forms run it:
// M2LBatchTable4, the Stokeslet's four harmonic passes over one geometry,
// and M2LBatchTheta, gravity's pairs grouped four to a theta (table.go).
// Every column of the wide kernel executes m2lApply's operations in
// m2lApply's order, so a column equals the single-column translation of
// the same inputs bit for bit.

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
// source multipoles of one cell (the table's class carries the geometry).
type M2LSource4 struct {
	M [4]Expansion
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
// packed storage's in_n^{-m} = conj(in_n^m). out is degree-major
// (sphharm.Idx). in is degree-major for the forward rotation and
// order-major (m = 0..p, n = m..p: the axial step writes a run per order)
// for the back rotation.
//
// This is the scalar reference of rotHalfAVX2 and what a host without the
// packed body runs. It walks the lane-major slab column by column, so
// every out_n^{m'} starts at +0 and takes its terms in the order
// m = 0..n, one rounded product and one rounded sum each. The float64
// conversions are rounding points: without them arm64 (and any other
// target with a fused multiply-add) contracts p*x + acc into one rounding
// and the kernel's bits would depend on the architecture. The same holds
// for every product below that feeds a sum, and in the solid harmonics and
// the leaf operators (solid.go).
func rotateHalf(p int, outRe, outIm, inRe, inIm, half []float64, orderMajor bool) {
	off, base := 0, 0 // degree n's block of half; Idx(n, 0)
	for n := 0; n <= p; n++ {
		h := n + 1
		hp := lanePad(h)
		or, oi := outRe[base:base+h], outIm[base:][:h]
		clear(or)
		clear(oi)
		q, step := base, 1 // in_n^0, and the way to in_n^1
		if orderMajor {
			q, step = n, p
		}
		for m := 0; m <= n; m++ {
			x, y := inRe[q], inIm[q]
			pc, qc := half[off:][:h], half[off+hp:][:h]
			off += 2 * hp
			for mp := range or {
				or[mp] += float64(pc[mp] * x)
				oi[mp] += float64(qc[mp] * y)
			}
			q += step
			if orderMajor {
				step--
			}
		}
		base += h
	}
}

// m2lApply is the one translation routine: rotate the source coefficients
// so the translation vector lies along +z, translate axially, rotate back,
// and accumulate into l — in real arithmetic on split re/im scratch. half
// is the half Wigner stack of the vector's theta, zph its e^{im phi}
// (m = 0..p), ax the axial row (laneRowInto's layout) and rpow the radial
// powers its factors are multiplied by (i = 0..2p+1, followed by laneSlack
// readable floats): for M2L axialBase and rho^-(i+1), for M2M and L2L a
// row with the powers folded in and ones (rotation.go).
//
// The forward rotation is the back rotation's transpose, and the signed
// stack satisfies w(m,m') = (-1)^{m+m'} w(m',m): forward = D back D,
// D = diag((-1)^m). Both D are exact sign flips, folded into the phase
// split and the axial write (every axial step is diagonal in the order k),
// so one half stack serves both rotations (THEORY §13).
//
// The routine has two bodies: the AVX2 one (m2l_amd64.s) where the host
// has it, the scalar one below otherwise and as the reference. They leave
// the same bits in l.
func (w *Workspace) m2lApply(l Expansion, src []complex128, half []float64, zph []complex128, rpow, ax []float64) {
	if packedOK {
		w.m2lPacked(l, src, half, zph, rpow, ax)
		return
	}
	p := l.P
	r := w.rot
	aRe, aIm, bRe, bIm := r.aRe, r.aIm, r.bRe, r.bIm

	// Forward frame change: split D * e^{im phi} * src.
	for m := 0; m <= p; m++ {
		c, s := real(zph[m]), imag(zph[m])
		if m%2 == 1 {
			c, s = -c, -s
		}
		for n, i := m, sphharm.Idx(m, m); n <= p; n, i = n+1, i+n+1 {
			x, y := real(src[i]), imag(src[i])
			aRe[i], aIm[i] = float64(x*c)-float64(y*s), float64(x*s)+float64(y*c)
		}
	}

	rotateHalf(p, bRe, bIm, aRe, aIm, half, false)

	// Axial step along +z, written order-major; for M2L
	//   L_j^k = sum_n O_n^k (-1)^{|k|+j} A_n^k A_j^k (j+n)! / rho^{j+n+1}.
	// The row is walked in its own order, laneWidth degrees j = j0.. of
	// order k at a time (a lane past p sums +0 terms and is not stored).
	rpow = rpow[:2*p+2+laneSlack]
	ko := 0 // order k's run of a, j = k..p
	for k := 0; k <= p; k++ {
		cnt := p - k + 1
		for j0 := k; j0 <= p; j0 += laneWidth {
			var r0, r1, r2, r3, i0, i1, i2, i3 float64
			q := sphharm.Idx(k, k)
			for i := 0; i < cnt; i++ { // n = k+i
				ab, rp := ax[:laneWidth], rpow[j0+k+i:][:laneWidth]
				ax = ax[laneWidth:]
				x, y := bRe[q], bIm[q]
				c0, c1, c2, c3 := ab[0]*rp[0], ab[1]*rp[1], ab[2]*rp[2], ab[3]*rp[3]
				r0 += float64(c0 * x)
				r1 += float64(c1 * x)
				r2 += float64(c2 * x)
				r3 += float64(c3 * x)
				i0 += float64(c0 * y)
				i1 += float64(c1 * y)
				i2 += float64(c2 * y)
				i3 += float64(c3 * y)
				q += k + i + 1
			}
			ar, ai := [laneWidth]float64{r0, r1, r2, r3}, [laneWidth]float64{i0, i1, i2, i3}
			for l := 0; l < laneWidth && j0+l <= p; l++ {
				if k%2 == 1 {
					ar[l], ai[l] = -ar[l], -ai[l]
				}
				aRe[ko+j0+l-k], aIm[ko+j0+l-k] = ar[l], ai[l]
			}
		}
		ko += cnt
	}

	rotateHalf(p, bRe, bIm, aRe, aIm, half, true)

	// Back to the source frame: conjugate phases; accumulate.
	for m := 0; m <= p; m++ {
		c, s := real(zph[m]), imag(zph[m])
		for n, i := m, sphharm.Idx(m, m); n <= p; n, i = n+1, i+n+1 {
			x, y := bRe[i], bIm[i]
			l.C[i] += complex(float64(x*c)+float64(y*s), float64(y*c)-float64(x*s))
		}
	}
}

// rotateHalf4 is rotateHalf over four columns: element i of a scratch
// vector holds coefficient i of all four, so one read of a P/Q entry feeds
// eight independent sums. Each column's sum runs over m in rotateHalf's
// order.
func rotateHalf4(p int, outRe, outIm, inRe, inIm [][4]float64, half []float64, orderMajor bool) {
	off, base := 0, 0
	for n := 0; n <= p; n++ {
		h := n + 1
		hp := lanePad(h)
		or, oi := outRe[base:base+h], outIm[base:][:h]
		clear(or)
		clear(oi)
		q, step := base, 1
		if orderMajor {
			q, step = n, p
		}
		for m := 0; m <= n; m++ {
			x, y := &inRe[q], &inIm[q]
			pc, qc := half[off:][:h], half[off+hp:][:h]
			off += 2 * hp
			for mp := range or {
				pv, qv := pc[mp], qc[mp]
				re, im := &or[mp], &oi[mp]
				re[0] += float64(pv * x[0])
				re[1] += float64(pv * x[1])
				re[2] += float64(pv * x[2])
				re[3] += float64(pv * x[3])
				im[0] += float64(qv * y[0])
				im[1] += float64(qv * y[1])
				im[2] += float64(qv * y[2])
				im[3] += float64(qv * y[3])
			}
			q += step
			if orderMajor {
				step--
			}
		}
		base += h
	}
}

// colGeom is the per-column geometry of a four-column translation,
// lane-major: zph[2m] holds the four columns' cos(m phi), zph[2m+1] their
// sin(m phi) (m = 0..p), and rpow[i] their radial-power factors
// (i = 0..2p+1). The columns share the half stack, so they share theta;
// phi and rho are each column's own.
type colGeom struct {
	zph, rpow [][4]float64
}

func newColGeom(p int) colGeom {
	g := make([][4]float64, 4*p+4)
	return colGeom{zph: g[:2*p+2], rpow: g[2*p+2:]}
}

// fill makes column c's geometry the width-1 rows zph[c] (p+1 phases) and
// rpow[c] (2p+2 powers, as the table's rows). Where the packed body runs,
// an assembly transpose with whole-vector stores does it: over the theta
// batches of grav-far-p8's tree that ran the M2L 1–10 % faster (median
// 5 %, five in-process comparisons) than this loop.
func (g *colGeom) fill(zph *[4][]complex128, rpow *[4][]float64) {
	p := len(g.zph)/2 - 1
	for c := range zph {
		zph[c], rpow[c] = zph[c][:p+1], rpow[c][:2*p+2]
	}
	if packedOK {
		geoLanesAVX2(p, &g.zph[0], &g.rpow[0], &zph[0][0], &zph[1][0], &zph[2][0], &zph[3][0],
			&rpow[0][0], &rpow[1][0], &rpow[2][0], &rpow[3][0])
		return
	}
	for c := range zph {
		for m, z := range zph[c] {
			g.zph[2*m][c], g.zph[2*m+1][c] = real(z), imag(z)
		}
		for i, r := range rpow[c] {
			g.rpow[i][c] = r
		}
	}
}

// wide returns the four-column scratch and geometry, made on the
// workspace's first four-column translation.
func (r *rotWorkspace) wide(p int) *colGeom {
	if r.aRe4 == nil {
		pl := sphharm.PackedLen(p)
		split := make([][4]float64, 4*pl)
		r.aRe4, r.aIm4, r.bRe4, r.bIm4 = split[:pl], split[pl:2*pl], split[2*pl:3*pl], split[3*pl:]
		r.geo = newColGeom(p)
	}
	return &r.geo
}

// m2lApply4 is m2lApply over four columns: src[c] translates into l[c]
// through one pass over half and ax, with column c's phases and radial
// powers (colGeom's layout). Each phase pair and axial coefficient is
// applied lane by lane; per column the operations and their order are
// m2lApply's on that column's geometry. The columns are added to their
// targets in column order, so l may name one expansion more than once: it
// then ends as after m2lApply on columns 0, 1, 2, 3 in turn.
func (w *Workspace) m2lApply4(l, src *[4]Expansion, half []float64, zph, rpow [][4]float64, ax []float64) {
	p := l[0].P
	r := w.rot
	pl := sphharm.PackedLen(p)
	r.wide(p)
	if packedOK {
		w.m2lPacked4(l, src, half, zph, rpow, ax)
		return
	}
	aRe, aIm, bRe, bIm := r.aRe4, r.aIm4, r.bRe4, r.bIm4
	s0, s1, s2, s3 := src[0].C[:pl], src[1].C[:pl], src[2].C[:pl], src[3].C[:pl]

	// Forward frame change: split D * e^{im phi} * src.
	for m := 0; m <= p; m++ {
		c, s := zph[2*m], zph[2*m+1]
		if m%2 == 1 {
			for k := range c {
				c[k], s[k] = -c[k], -s[k]
			}
		}
		for n, i := m, sphharm.Idx(m, m); n <= p; n, i = n+1, i+n+1 {
			x0, y0 := real(s0[i]), imag(s0[i])
			x1, y1 := real(s1[i]), imag(s1[i])
			x2, y2 := real(s2[i]), imag(s2[i])
			x3, y3 := real(s3[i]), imag(s3[i])
			aRe[i] = [4]float64{float64(x0*c[0]) - float64(y0*s[0]), float64(x1*c[1]) - float64(y1*s[1]),
				float64(x2*c[2]) - float64(y2*s[2]), float64(x3*c[3]) - float64(y3*s[3])}
			aIm[i] = [4]float64{float64(x0*s[0]) + float64(y0*c[0]), float64(x1*s[1]) + float64(y1*c[1]),
				float64(x2*s[2]) + float64(y2*c[2]), float64(x3*s[3]) + float64(y3*c[3])}
		}
	}

	rotateHalf4(p, bRe, bIm, aRe, aIm, half, false)

	// Axial step along +z (see m2lApply).
	off, ko := 0, 0
	for k := 0; k <= p; k++ {
		cnt := p - k + 1
		for j := k; j <= p; j++ {
			ab, rp := ax[off+(j-k)/laneWidth*laneWidth*cnt+(j-k)%laneWidth:], rpow[j+k:][:cnt]
			var r0, r1, r2, r3, i0, i1, i2, i3 float64
			q := sphharm.Idx(k, k)
			for i := range rp {
				a, rv := ab[i*laneWidth], &rp[i]
				c0, c1, c2, c3 := a*rv[0], a*rv[1], a*rv[2], a*rv[3]
				x, y := &bRe[q], &bIm[q]
				r0 += float64(c0 * x[0])
				r1 += float64(c1 * x[1])
				r2 += float64(c2 * x[2])
				r3 += float64(c3 * x[3])
				i0 += float64(c0 * y[0])
				i1 += float64(c1 * y[1])
				i2 += float64(c2 * y[2])
				i3 += float64(c3 * y[3])
				q += k + i + 1
			}
			if k%2 == 1 {
				r0, r1, r2, r3, i0, i1, i2, i3 = -r0, -r1, -r2, -r3, -i0, -i1, -i2, -i3
			}
			aRe[ko+j-k] = [4]float64{r0, r1, r2, r3}
			aIm[ko+j-k] = [4]float64{i0, i1, i2, i3}
		}
		off += lanePad(cnt) * cnt
		ko += cnt
	}

	rotateHalf4(p, bRe, bIm, aRe, aIm, half, true)

	// Back to the source frame: conjugate phases; accumulate column by
	// column.
	l0, l1, l2, l3 := l[0].C[:pl], l[1].C[:pl], l[2].C[:pl], l[3].C[:pl]
	for m := 0; m <= p; m++ {
		c, s := &zph[2*m], &zph[2*m+1]
		for n, i := m, sphharm.Idx(m, m); n <= p; n, i = n+1, i+n+1 {
			x, y := &bRe[i], &bIm[i]
			l0[i] += complex(float64(x[0]*c[0])+float64(y[0]*s[0]), float64(y[0]*c[0])-float64(x[0]*s[0]))
			l1[i] += complex(float64(x[1]*c[1])+float64(y[1]*s[1]), float64(y[1]*c[1])-float64(x[1]*s[1]))
			l2[i] += complex(float64(x[2]*c[2])+float64(y[2]*s[2]), float64(y[2]*c[2])-float64(x[2]*s[2]))
			l3[i] += complex(float64(x[3]*c[3])+float64(y[3]*s[3]), float64(y[3]*c[3])-float64(x[3]*s[3]))
		}
	}
}

// M2LBatch accumulates into l the local expansions at `to` of every source
// multipole in srcs: the uncached, allocation-free reference form of
// M2LBatchTable. Sources and target must have the workspace's order.
func (w *Workspace) M2LBatch(l Expansion, to geom.Vec3, srcs []M2LSource) {
	p := l.P
	r := w.rot
	for _, s := range srcs {
		rho, theta, phi := s.From.Sub(to).Spherical()
		r.halfStackInto(r.half, p, theta)
		fillPhases(r.zph, phi)
		fillInvPowers(r.rpow, rho)
		w.m2lApply(l, s.M.C, r.half, r.zph, r.rpow, w.axb)
	}
}
