package expansion

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"afmm/internal/geom"
	"afmm/internal/octree"
	"afmm/internal/sphharm"
)

// The complex-arithmetic M2L kernel of commit 14d1dcf, verbatim: the oracle
// the real-arithmetic m2lApply is held to (TestM2LKernelMatchesOracle). It
// takes the full pre-signed Wigner stack (signedWignerInto), not the half
// stack.

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

// m2lApplyOracle is commit 14d1dcf's complex-arithmetic M2L inner routine,
// kept verbatim (with rotateZCached and rotateYSigned) as the numerics
// oracle of the real-arithmetic kernel: rotate the source coefficients so
// the translation vector lies along +z, translate axially, rotate back,
// and accumulate into l. stack is the flat pre-signed Wigner stack of the
// vector's theta, zph its e^{im phi} (m = 0..p), rpow its rho^-(i+1)
// (i = 0..2p+1).
func (w *Workspace) m2lApplyOracle(l Expansion, src []complex128, stack []float64, zph []complex128, rpow []float64) {
	p := l.P

	buf1, buf2 := make([]complex128, len(src)), make([]complex128, len(src))

	// Forward frame change: phase e^{im phi}, transposed stack.
	copy(buf1, src)
	rotateZCached(p, buf1, zph, false)
	rotateYSigned(p, buf2, buf1, stack, true)

	// Axial M2L along +z:
	//   L_j^k = sum_n O_n^k (-1)^{|k|+j} A_n^k A_j^k (j+n)! / rho^{j+n+1}
	axb, idx := axialBaseScalar(p), 0
	for j := 0; j <= p; j++ {
		for k := 0; k <= j; k++ {
			var acc complex128
			for n := k; n <= p; n++ {
				acc += complex(axb[idx]*rpow[j+n], 0) * buf2[sphharm.Idx(n, k)]
				idx++
			}
			buf1[sphharm.Idx(j, k)] = acc
		}
	}

	// Back rotation: untransposed stack, conjugate phases; accumulate.
	rotateYSigned(p, buf2, buf1, stack, false)
	rotateZCached(p, buf2, zph, true)
	for i := range l.C {
		l.C[i] += buf2[i]
	}
}

// axialBaseScalar is scalarOrder(axialBase(p), p), made once per order.
func axialBaseScalar(p int) []float64 {
	if axialBaseScalars[p] == nil {
		axialBaseScalars[p] = scalarOrder(axialBase(p), p)
	}
	return axialBaseScalars[p]
}

var axialBaseScalars [sphharm.MaxOrder + 1][]float64

// scalarOrder returns the factors of an axial row (laneRowInto's layout)
// in the scalar loop's order: j = 0..p, k = 0..j, n = k..p.
func scalarOrder(ax []float64, p int) (out []float64) {
	offs := make([]int, p+1) // order k's block of ax
	for k := 1; k <= p; k++ {
		offs[k] = offs[k-1] + lanePad(p-k+2)*(p-k+2)
	}
	for j := 0; j <= p; j++ {
		for k := 0; k <= j; k++ {
			g := ax[offs[k]+(j-k)/laneWidth*laneWidth*(p-k+1)+(j-k)%laneWidth:]
			for n := k; n <= p; n++ {
				out = append(out, g[(n-k)*laneWidth])
			}
		}
	}
	return out
}

// m2lBatchOracle is commit 14d1dcf's M2LBatch over the oracle kernel.
func (w *Workspace) m2lBatchOracle(l Expansion, to geom.Vec3, srcs []M2LSource) {
	p := l.P
	r := w.rot
	for _, s := range srcs {
		rho, theta, phi := s.From.Sub(to).Spherical()
		signedWignerInto(r.stack, p, theta)
		fillPhases(r.zph, phi)
		fillInvPowers(r.rpow, rho)
		w.m2lApplyOracle(l, s.M.C, r.flat, r.zph, r.rpow)
	}
}

// m2lRelDiff is the largest coefficient difference of one translation of
// src over distance rho, relative to the size of the terms its output
// degree j sums (shiftRelDiff with the M2L row).
func m2lRelDiff(w *Workspace, got, want, src []complex128, rho float64) float64 {
	fillInvPowers(w.rot.rpow, rho)
	return shiftRelDiff(w.p, got, want, src, axialBaseScalar(w.p), w.rot.rpow)
}

// shiftRelDiff is the largest coefficient difference of one translation
// of src through the axial row axs (in scalarOrder) and radial powers
// rpow, relative to the
// size of the terms its output degree j sums: max_k sum_n |ax(j, k, n)|
// rpow[j+n] |O_n|, with |O_n| the rotation-invariant norm of the source's
// degree n. (Relative to the result itself would measure the conditioning
// of the sum, which cancels freely for random sources, not the kernels.)
func shiftRelDiff(p int, got, want, src []complex128, axs, rpow []float64) float64 {
	norm := make([]float64, p+1)
	for n := range norm {
		for m := 0; m <= n; m++ {
			a := cmplx.Abs(src[sphharm.Idx(n, m)])
			norm[n] += a * a * float64(min(m, 1)+1)
		}
		norm[n] = math.Sqrt(norm[n])
	}
	var worst float64
	idx := 0
	for j := 0; j <= p; j++ {
		var scale, diff float64
		for k := 0; k <= j; k++ {
			var terms float64
			for n := k; n <= p; n++ {
				terms += math.Abs(axs[idx]) * rpow[j+n] * norm[n]
				idx++
			}
			scale = math.Max(scale, terms)
			diff = math.Max(diff, cmplx.Abs(got[sphharm.Idx(j, k)]-want[sphharm.Idx(j, k)]))
		}
		worst = math.Max(worst, diff/scale)
	}
	return worst
}

// oracleOrders are the orders the numerics gate runs at.
var oracleOrders = []int{0, 1, 2, 4, 8, 12, sphharm.MaxOrder}

// axialOffsets have theta exactly 0, pi or pi/2: the commonest V-list
// entries.
var axialOffsets = []geom.Vec3{
	{Z: 3}, {Z: -3}, {Z: 1.5}, {X: 3}, {Y: -3}, {X: 2, Y: 2}, {X: -3, Y: 1},
}

// sampledClasses returns the class directions the kernel gates visit at
// order p: all of them, but every 16th above p = 12 (both kernels and both
// stack builds are O(p^3): ~1 ms a translation at MaxOrder), and 8x
// sparser under -short.
func sampledClasses(dirs []geom.Vec3, p int) (out []geom.Vec3) {
	stride := 1
	if p > 12 {
		stride = 16
	}
	if testing.Short() {
		stride *= 8
	}
	for i := 0; i < len(dirs); i += stride {
		out = append(out, dirs[i])
	}
	return out
}

// TestM2LKernelMatchesOracle is the numerics gate of the real-arithmetic
// kernel: against the complex-arithmetic kernel it replaced, a translation
// may differ only by rounding (sums regrouped into P/Q entries, no w == 0
// skip) — on the golden batch, on exactly axial and equatorial offsets
// (theta 0, pi, pi/2: the commonest V-list entries, and the old kernel's
// sparse fast case), and on every translation class (every distinct
// V-list offset; every 16th at MaxOrder) of the three real trees. Translations are compared one by
// one, so no pair hides behind its neighbours' sum, and under both dispatch
// states.
func TestM2LKernelMatchesOracle(t *testing.T) {
	const tol = 1e-13
	states := dispatchStates(t) // the oracle side runs once per translation, the kernel once per state
	check := func(name string, p int, w *Workspace, to geom.Vec3, srcs []M2LSource) {
		t.Helper()
		got, want := NewExpansion(p), NewExpansion(p)
		var worst float64
		defer func() { t.Logf("%s p=%d: %d translations, worst deviation %.2g", name, p, len(srcs), worst) }()
		for i := range srcs {
			want.Zero()
			w.m2lBatchOracle(want, to, srcs[i:i+1])
			off := srcs[i].From.Sub(to)
			for _, packed := range states {
				packedOK = packed
				got.Zero()
				w.M2LBatch(got, to, srcs[i:i+1])
				if d := m2lRelDiff(w, got.C, want.C, srcs[i].M.C, off.Norm()); !(d <= tol) {
					t.Fatalf("%s p=%d packed=%v offset %v: kernel deviates from the oracle by %g (tolerance %g)",
						name, p, packed, off, d, tol)
				} else if d > worst {
					worst = d
				}
			}
		}
	}
	for _, p := range oracleOrders {
		w := NewWorkspace(p)
		to, srcs := goldenBatch(p)
		check("golden", p, w, to, srcs)
		rng := rand.New(rand.NewSource(int64(50 + p)))
		srcs = srcs[:0]
		for _, d := range axialOffsets {
			if _, theta, _ := d.Spherical(); theta != 0 && theta != math.Pi && theta != math.Pi/2 {
				t.Fatalf("offset %v has theta %v, want an exact 0, pi/2 or pi", d, theta)
			}
			srcs = append(srcs, M2LSource{M: randomExpansion(p, rng), From: d})
		}
		check("axial", p, w, geom.Vec3{}, srcs)
	}
	for _, tc := range treeCases {
		tr := octree.Build(tc.sys(), octree.Config{S: 24})
		tr.BuildLists()
		cls := tr.M2LClasses()
		for _, p := range oracleOrders {
			rng := rand.New(rand.NewSource(int64(60 + p)))
			var srcs []M2LSource
			for _, d := range sampledClasses(cls.Dirs, p) {
				srcs = append(srcs, M2LSource{M: randomExpansion(p, rng), From: d})
			}
			check(tc.name, p, NewWorkspace(p), geom.Vec3{}, srcs)
		}
	}
}
