package expansion

import (
	"math"

	"afmm/internal/geom"
	"afmm/internal/sphharm"
)

// Expansion is a packed (m >= 0) coefficient vector of a multipole or
// local expansion of order P.
type Expansion struct {
	P int
	C []complex128
}

// NewExpansion allocates a zero expansion of order p.
func NewExpansion(p int) Expansion {
	return Expansion{P: p, C: make([]complex128, sphharm.PackedLen(p))}
}

// Zero resets all coefficients.
func (e Expansion) Zero() {
	for i := range e.C {
		e.C[i] = 0
	}
}

// Add accumulates o into e (same order required).
func (e Expansion) Add(o Expansion) {
	for i := range e.C {
		e.C[i] += o.C[i]
	}
}

// Workspace holds per-goroutine scratch buffers for the operators so hot
// paths do not allocate. A Workspace must not be shared across goroutines.
type Workspace struct {
	p     int
	t     *sphharm.Tables
	reg   []complex128 // regular harmonics, degree p
	irr   []complex128 // irregular harmonics, degree 2p
	val   []complex128 // L2P value buffer
	gx    []complex128
	gy    []complex128
	gz    []complex128
	rot   *rotWorkspace // buffers of the translation kernel
	axb   []float64     // axialBase(p), shared read-only
	srcs  []M2LSource   // V-list scratch (see Sources)
	src4  []M2LSource4  // four-column V-list scratch (see Sources4)
	lanes []float64     // the packed leaf bodies' scratch (leaf.go)
	// M2LBatchTheta's scratch: the caller's pairs (see Pairs), the bucket
	// bounds and the pairs in bucket order.
	pairs  []M2LPair
	bucket []int32
	sorted []thetaPair
}

// NewWorkspace creates scratch space for order-p operators.
func NewWorkspace(p int) *Workspace {
	pl := sphharm.PackedLen(p)
	h := make([]complex128, 5*pl+sphharm.PackedLen(2*p)) // one allocation for the harmonics
	return &Workspace{
		p:   p,
		t:   sphharm.NewTables(p),
		reg: h[:pl:pl],
		val: h[pl : 2*pl : 2*pl],
		gx:  h[2*pl : 3*pl : 3*pl],
		gy:  h[3*pl : 4*pl : 4*pl],
		gz:  h[4*pl : 5*pl : 5*pl],
		irr: h[5*pl:],
		rot: newRotWorkspace(p),
		axb: axialBase(p),
	}
}

// P2M accumulates the multipole contribution of a charge q at position pos
// into the expansion m centered at center:
//
//	M_n^k += q * conj(R_n^k(pos - center))
func (w *Workspace) P2M(m Expansion, center, pos geom.Vec3, q float64) {
	Regular(m.P, pos.Sub(center), w.reg)
	accumulateP2M(m.C, w.reg, q)
}

// P2M4 is P2M for four charges q[c] at one position, accumulated into the
// four expansions m[c] of one center: the harmonics are evaluated once.
// m[c] ends bit-identical to P2M(m[c], center, pos, q[c]).
func (w *Workspace) P2M4(m *[4]Expansion, center, pos geom.Vec3, q [4]float64) {
	Regular(m[0].P, pos.Sub(center), w.reg)
	for c := range m {
		accumulateP2M(m[c].C, w.reg, q[c])
	}
}

// accumulateP2M adds q * conj(reg[i]) to dst[i], in real arithmetic.
func accumulateP2M(dst, reg []complex128, q float64) {
	for i, r := range reg[:len(dst)] {
		dst[i] = complex(real(dst[i])+float64(q*real(r)), imag(dst[i])-float64(q*imag(r)))
	}
}

// M2L converts the multipole o centered at from into a local expansion
// accumulated into l centered at to:
//
//	L_j^k += sum_{n,m} O_n^m i^{|k-m|-|k|-|m|} A_n^m A_j^k
//	          S_{j+n}^{m-k}(d) / ((-1)^n A_{j+n}^{m-k}),  d = from - to
func (w *Workspace) M2L(l Expansion, to geom.Vec3, o Expansion, from geom.Vec3) {
	// Orders may differ (e.g. probe evaluation converts a full multipole
	// into a degree-1 local); the workspace must cover l.P + o.P.
	p := l.P
	srcP := o.P
	Irregular(p+srcP, from.Sub(to), w.irr)
	t := w.t
	for j := 0; j <= p; j++ {
		for k := 0; k <= j; k++ {
			ajk := t.Anm(j, k)
			var acc complex128
			for n := 0; n <= srcP; n++ {
				neg := 1.0
				if n%2 == 1 {
					neg = -1.0
				}
				for mm := -n; mm <= n; mm++ {
					sign := sphharm.IPow(abs(k-mm) - abs(k) - abs(mm))
					s := get(w.irr, j+n, mm-k)
					acc += get(o.C, n, mm) * sign *
						complex(t.Anm(n, mm)*ajk*neg/t.Anm(j+n, mm-k), 0) * s
				}
			}
			l.C[sphharm.Idx(j, k)] += acc
		}
	}
}

// L2P evaluates the local expansion l centered at center at the point pos,
// returning the potential and its Cartesian gradient.
func (w *Workspace) L2P(l Expansion, center, pos geom.Vec3) (phi float64, grad geom.Vec3) {
	RegularGrad(l.P, pos.Sub(center), w.val, w.gx, w.gy, w.gz)
	return w.evalLocal(l)
}

// L2P4 is L2P for the four local expansions l[c] of one center: the
// harmonics and their gradients are evaluated once. Each result is
// bit-identical to L2P(l[c], center, pos).
func (w *Workspace) L2P4(l *[4]Expansion, center, pos geom.Vec3) (phi [4]float64, grad [4]geom.Vec3) {
	RegularGrad(l[0].P, pos.Sub(center), w.val, w.gx, w.gy, w.gz)
	for c := range l {
		phi[c], grad[c] = w.evalLocal(l[c])
	}
	return phi, grad
}

// evalLocal contracts l with the harmonics and gradients RegularGrad left
// in the workspace, in real arithmetic: the m > 0 terms count twice for
// their m < 0 conjugates. Every product feeding a sum is a rounding point.
func (w *Workspace) evalLocal(l Expansion) (phi float64, grad geom.Vec3) {
	var p, gx, gy, gz float64
	for n := 0; n <= l.P; n++ {
		i0 := sphharm.Idx(n, 0)
		c := l.C[i0]
		cr, ci := real(c), imag(c)
		// m = 0 harmonics are real-valued polynomials, but retain the
		// general complex product for safety against rounding drift.
		p += float64(cr * real(w.val[i0]))
		p -= float64(ci * imag(w.val[i0]))
		gx += float64(cr*real(w.gx[i0])) - float64(ci*imag(w.gx[i0]))
		gy += float64(cr*real(w.gy[i0])) - float64(ci*imag(w.gy[i0]))
		gz += float64(cr*real(w.gz[i0])) - float64(ci*imag(w.gz[i0]))
		for m := 1; m <= n; m++ {
			i := i0 + m
			c := l.C[i]
			cr, ci := real(c), imag(c)
			p += float64(2 * (float64(cr*real(w.val[i])) - float64(ci*imag(w.val[i]))))
			gx += float64(2 * (float64(cr*real(w.gx[i])) - float64(ci*imag(w.gx[i]))))
			gy += float64(2 * (float64(cr*real(w.gy[i])) - float64(ci*imag(w.gy[i]))))
			gz += float64(2 * (float64(cr*real(w.gz[i])) - float64(ci*imag(w.gz[i]))))
		}
	}
	return p, geom.Vec3{X: gx, Y: gy, Z: gz}
}

// EvalMultipole evaluates the multipole expansion m centered at center at a
// point pos outside the expansion sphere, returning the potential.
func (w *Workspace) EvalMultipole(m Expansion, center, pos geom.Vec3) float64 {
	Irregular(m.P, pos.Sub(center), w.irr)
	var p float64
	for n := 0; n <= m.P; n++ {
		i0 := sphharm.Idx(n, 0)
		p += real(m.C[i0])*real(w.irr[i0]) - imag(m.C[i0])*imag(w.irr[i0])
		for k := 1; k <= n; k++ {
			i := sphharm.Idx(n, k)
			p += 2 * (real(m.C[i])*real(w.irr[i]) - imag(m.C[i])*imag(w.irr[i]))
		}
	}
	return p
}

// P2L accumulates the local expansion of a distant point charge q at pos
// into l centered at center:
//
//	L_n^m += q * conj(S_n^m(pos - center))
func (w *Workspace) P2L(l Expansion, center, pos geom.Vec3, q float64) {
	Irregular(l.P, pos.Sub(center), w.irr)
	for i := range l.C {
		s := w.irr[i]
		l.C[i] += complex(q, 0) * complex(real(s), -imag(s))
	}
}

// TruncationError returns the classical a-priori bound on the relative
// truncation error of an order-p multipole expansion of radius a evaluated
// at distance d from its center: the geometric tail
//
//	(a/d)^(p+1) * d/(d-a)
//
// finite whenever d > a (the multipole acceptance criterion guarantees
// a/d <= MAC < 1).
func TruncationError(p int, a, d float64) float64 {
	if d <= a {
		return math.Inf(1)
	}
	return math.Pow(a/d, float64(p+1)) * d / (d - a)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
