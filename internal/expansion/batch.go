package expansion

import (
	"afmm/internal/geom"
	"afmm/internal/sphharm"
)

// Batched M2L: the sweeps apply a target's whole V list in one call. Both
// batch forms run one kernel, m2lApply, over the per-direction setup of
// the rotation-accelerated translation — the pre-signed Wigner stack for
// the polar angle theta, the azimuthal phases e^{i m phi} and the radial
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

// rotateZCached multiplies coefficient (n, m) by ph[m] (or its conjugate),
// the cached-phase equivalent of rotateZ(p, e, ±phi).
func rotateZCached(p int, e []complex128, ph []complex128, conj bool) {
	for m := 1; m <= p; m++ {
		f := ph[m]
		if conj {
			f = complex(real(f), -imag(f))
		}
		for n := m; n <= p; n++ {
			e[sphharm.Idx(n, m)] *= f
		}
	}
}

// rotateYSigned applies a flat pre-signed Wigner stack (see
// signedWignerInto): rotateY with the per-entry sigma products already
// folded into the matrix entries,
//
//	out_n^{m'} = sum_{m=-n..n} w_{m'm} in_n^m,  in_n^{-m} = conj(in_n^m),
//
// w the stack entry (m', m), or (m, m') when transposed. The w == 0 skip
// and the m = -n..n order are rotateY's, so the accumulation matches it
// bit-for-bit.
func rotateYSigned(p int, out, in []complex128, stack []float64, transpose bool) {
	off := 0
	for n := 0; n <= p; n++ {
		dim := 2*n + 1
		d := stack[off : off+dim*dim]
		off += dim * dim
		row := in[sphharm.Idx(n, 0) : sphharm.Idx(n, 0)+n+1] // in_n^m, m = 0..n
		for mp := 0; mp <= n; mp++ {
			// Entry (m', m) sits at start + (m+n)*step.
			start, step := (mp+n)*dim, 1
			if transpose {
				start, step = mp+n, dim
			}
			var acc complex128
			for m := n; m >= 1; m-- { // m' column -m
				if w := d[start+(n-m)*step]; w != 0 {
					acc += complex(w, 0) * complex(real(row[m]), -imag(row[m]))
				}
			}
			for m := 0; m <= n; m++ {
				if w := d[start+(n+m)*step]; w != 0 {
					acc += complex(w, 0) * row[m]
				}
			}
			out[sphharm.Idx(n, mp)] = acc
		}
	}
}

// m2lApply is the one M2L inner routine: rotate the source coefficients so
// the translation vector lies along +z, translate axially, rotate back,
// and accumulate into l. stack is the flat pre-signed Wigner stack of the
// vector's theta, zph its e^{im phi} (m = 0..p), rpow its rho^-(i+1)
// (i = 0..2p+1).
func (w *Workspace) m2lApply(l Expansion, src []complex128, stack []float64, zph []complex128, rpow []float64) {
	p := l.P
	r := w.rot

	// Forward frame change: phase e^{im phi}, transposed stack.
	copy(r.buf1, src)
	rotateZCached(p, r.buf1, zph, false)
	rotateYSigned(p, r.buf2, r.buf1, stack, true)

	// Axial M2L along +z:
	//   L_j^k = sum_n O_n^k (-1)^{|k|+j} A_n^k A_j^k (j+n)! / rho^{j+n+1}
	axb := w.axb
	idx := 0
	for j := 0; j <= p; j++ {
		for k := 0; k <= j; k++ {
			var acc complex128
			for n := k; n <= p; n++ {
				acc += complex(axb[idx]*rpow[j+n], 0) * r.buf2[sphharm.Idx(n, k)]
				idx++
			}
			r.buf1[sphharm.Idx(j, k)] = acc
		}
	}

	// Back rotation: untransposed stack, conjugate phases; accumulate.
	rotateYSigned(p, r.buf2, r.buf1, stack, false)
	rotateZCached(p, r.buf2, zph, true)
	for i := range l.C {
		l.C[i] += r.buf2[i]
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
		signedWignerInto(r.stack, p, theta)
		fillPhases(r.zph, phi)
		fillInvPowers(r.rpow, rho)
		w.m2lApply(l, s.M.C, r.flat, r.zph, r.rpow)
	}
}
