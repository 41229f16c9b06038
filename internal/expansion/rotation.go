package expansion

import (
	"math/cmplx"

	"afmm/internal/geom"
	"afmm/internal/sphharm"
)

// Rotation-accelerated ("point and shoot") translations: a translation
// along an arbitrary vector d becomes
//
//	rotate the expansion so d lies along +z  ->  translate along z  ->
//	rotate back,
//
// reducing the O(p^4) translation double sums to O(p^3): rotations cost
// one dense (2n+1)^2 product per degree and the axial translations couple
// only coefficients with equal order m.
//
// Basis bookkeeping: this package's harmonics relate to the
// quantum-normalized ones by Y_here^{nm} = sigma_m c_n Y_quantum^{nm} with
// sigma_m = (-1)^m for m >= 0 and 1 for m < 0 (no Condon-Shortley phase
// here) and a degree-only factor c_n that cancels. Coefficient vectors
// therefore rotate with sigma-conjugated Wigner matrices,
// G^n = diag(sigma) d^n diag(sigma), and z-rotations stay diagonal.

// rotWorkspace holds the reusable buffers for rotated operators.
type rotWorkspace struct {
	flat  []float64    // Wigner stack storage, degree blocks in order
	stack [][]float64  // per-degree views of flat, reused across calls
	half  []float64    // half stack scratch (M2LBatch, spilled theta)
	buf1  []complex128 // packed coefficients, scratch
	buf2  []complex128
	rpow  []float64    // powers of 1/rho or rho; laneSlack spare capacity
	zph   []complex128 // e^{i m phi} scratch (M2LBatch); laneSlack spare capacity
	zip   []complex128 // the packed merge's re/im-zipped output, with laneSlack
	// Split re/im packed coefficients, ping-pong pairs of m2lApply, each
	// followed by laneSlack floats the packed body may overwrite.
	aRe, aIm, bRe, bIm []float64
	// The same for m2lApply4, four columns per coefficient; allocated on
	// the first four-column call.
	aRe4, aIm4, bRe4, bIm4 [][4]float64
}

func newRotWorkspace(p int) *rotWorkspace {
	pl := sphharm.PackedLen(p)
	sl := pl + laneSlack
	split := make([]float64, 4*sl)
	r := &rotWorkspace{
		flat:  make([]float64, stackLen(p)),
		stack: make([][]float64, p+1),
		half:  make([]float64, halfLen(p)),
		buf1:  make([]complex128, pl),
		buf2:  make([]complex128, pl),
		rpow:  make([]float64, 2*p+2, 2*p+2+laneSlack),
		zph:   make([]complex128, p+1, p+1+laneSlack),
		zip:   make([]complex128, pl+laneSlack),
		aRe:   split[:sl], aIm: split[sl : 2*sl], bRe: split[2*sl : 3*sl], bIm: split[3*sl:],
	}
	stackViews(r.stack, r.flat)
	return r
}

// rotateZ multiplies coefficient (n, m) by e^{i m phase} in place
// (m >= 0 packed storage; the Hermitian negative-m half follows by
// conjugation).
func rotateZ(p int, e []complex128, phase float64) {
	for m := 1; m <= p; m++ {
		f := cmplx.Exp(complex(0, float64(m)*phase))
		for n := m; n <= p; n++ {
			e[sphharm.Idx(n, m)] *= f
		}
	}
}

// rotateY applies the sigma-conjugated Wigner matrix of each degree:
//
//	out_n^{m'} = sigma_{m'} sum_m d*_{m'm} sigma_m in_n^m
//
// where d* is stack[n] or its transpose. Negative-m inputs come from the
// Hermitian symmetry of the packed storage.
func rotateY(p int, out, in []complex128, stack [][]float64, transpose bool) {
	for n := 0; n <= p; n++ {
		dim := 2*n + 1
		d := stack[n]
		for mp := 0; mp <= n; mp++ {
			var acc complex128
			for m := -n; m <= n; m++ {
				var w float64
				if transpose {
					w = d[(m+n)*dim+(mp+n)]
				} else {
					w = d[(mp+n)*dim+(m+n)]
				}
				if w == 0 {
					continue
				}
				w *= sigma(mp) * sigma(m)
				acc += complex(w, 0) * get(in[:], n, m)
			}
			out[sphharm.Idx(n, mp)] = acc
		}
	}
}

// sigma is the basis-conversion sign: (-1)^m for m >= 0, +1 for m < 0.
func sigma(m int) float64 {
	if m > 0 && m%2 != 0 {
		return -1
	}
	return 1
}

// M2LRotated is the O(p^3) equivalent of M2L: it accumulates into l the
// local expansion at `to` of the multipole o centered at `from`.
func (w *Workspace) M2LRotated(l Expansion, to geom.Vec3, o Expansion, from geom.Vec3) {
	p := l.P
	r := w.rot
	d := from.Sub(to)
	rho, theta, phi := d.Spherical()
	WignerStackInto(r.stack, p, theta)

	// Forward frame change Q = Ry(-theta) Rz(-phi): phase e^{im phi},
	// then the transposed Wigner stack (d(-theta) = d(theta)^T).
	copy(r.buf1, o.C)
	rotateZ(p, r.buf1, phi)
	rotateY(p, r.buf2, r.buf1, r.stack, true)

	// Axial M2L along +z at distance rho:
	//   L_j^k = sum_n O_n^k (-1)^{|k|+j} A_n^k A_j^k (j+n)! / rho^{j+n+1}
	t := w.t
	fillInvPowers(r.rpow, rho)
	for j := 0; j <= p; j++ {
		sj := 1.0
		if j%2 == 1 {
			sj = -1
		}
		for k := 0; k <= j; k++ {
			sk := sj
			if k%2 == 1 {
				sk = -sk
			}
			ajk := t.Anm(j, k)
			var acc complex128
			for n := k; n <= p; n++ {
				c := sk * t.Anm(n, k) * ajk * t.Fact[j+n] * r.rpow[j+n]
				acc += complex(c, 0) * r.buf2[sphharm.Idx(n, k)]
			}
			r.buf1[sphharm.Idx(j, k)] = acc
		}
	}

	// Back rotation Q^{-1} = Rz(phi) Ry(theta): Wigner stack untransposed,
	// then phase e^{-im phi}; accumulate into l.
	rotateY(p, r.buf2, r.buf1, r.stack, false)
	rotateZ(p, r.buf2, -phi)
	for i := range l.C {
		l.C[i] += r.buf2[i]
	}
}

// M2MRotated is the O(p^3) equivalent of M2M (child multipole at `from`
// into parent at `to`).
func (w *Workspace) M2MRotated(m Expansion, to geom.Vec3, o Expansion, from geom.Vec3) {
	p := m.P
	r := w.rot
	d := from.Sub(to)
	rho, theta, phi := d.Spherical()
	if rho == 0 {
		m.Add(o)
		return
	}
	WignerStackInto(r.stack, p, theta)
	copy(r.buf1, o.C)
	rotateZ(p, r.buf1, phi)
	rotateY(p, r.buf2, r.buf1, r.stack, true)

	// Axial M2M: M_j^k = sum_{n=0}^{j-|k|} O_{j-n}^k A_n^0 A_{j-n}^k rho^n / A_j^k
	t := w.t
	r.rpow[0] = 1
	for i := 1; i < len(r.rpow); i++ {
		r.rpow[i] = r.rpow[i-1] * rho
	}
	for j := p; j >= 0; j-- {
		for k := 0; k <= j; k++ {
			ajk := t.Anm(j, k)
			var acc complex128
			for n := 0; n <= j-k; n++ {
				c := t.Anm(n, 0) * t.Anm(j-n, k) * r.rpow[n] / ajk
				acc += complex(c, 0) * r.buf2[sphharm.Idx(j-n, k)]
			}
			r.buf1[sphharm.Idx(j, k)] = acc
		}
	}

	rotateY(p, r.buf2, r.buf1, r.stack, false)
	rotateZ(p, r.buf2, -phi)
	for i := range m.C {
		m.C[i] += r.buf2[i]
	}
}

// L2LRotated is the O(p^3) equivalent of L2L (parent local at `from` into
// child at `to`).
func (w *Workspace) L2LRotated(l Expansion, to geom.Vec3, o Expansion, from geom.Vec3) {
	p := l.P
	r := w.rot
	d := from.Sub(to)
	rho, theta, phi := d.Spherical()
	if rho == 0 {
		l.Add(o)
		return
	}
	WignerStackInto(r.stack, p, theta)
	copy(r.buf1, o.C)
	rotateZ(p, r.buf1, phi)
	rotateY(p, r.buf2, r.buf1, r.stack, true)

	// Axial L2L: L_j^k = sum_{n>=max(j,|k|)} O_n^k A_j^k rho^{n-j} / ((n-j)! A_n^k)
	t := w.t
	r.rpow[0] = 1
	for i := 1; i < len(r.rpow); i++ {
		r.rpow[i] = r.rpow[i-1] * rho
	}
	for j := 0; j <= p; j++ {
		for k := 0; k <= j; k++ {
			ajk := t.Anm(j, k)
			var acc complex128
			for n := j; n <= p; n++ {
				if k > n {
					continue
				}
				c := ajk * r.rpow[n-j] / (t.Fact[n-j] * t.Anm(n, k))
				acc += complex(c, 0) * r.buf2[sphharm.Idx(n, k)]
			}
			r.buf1[sphharm.Idx(j, k)] = acc
		}
	}

	rotateY(p, r.buf2, r.buf1, r.stack, false)
	rotateZ(p, r.buf2, -phi)
	for i := range l.C {
		l.C[i] += r.buf2[i]
	}
}
