package expansion

import (
	"math"
	"sync"

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
// one (n+1)^2 half-matrix product per degree and the axial translations
// couple only coefficients with equal order m. All three translations —
// M2L, M2M and L2L — run the one kernel, m2lApply (batch.go); they differ
// only in the axial row it is handed.
//
// Basis bookkeeping: this package's harmonics relate to the
// quantum-normalized ones by Y_here^{nm} = sigma_m c_n Y_quantum^{nm} with
// sigma_m = (-1)^m for m >= 0 and 1 for m < 0 (no Condon-Shortley phase
// here) and a degree-only factor c_n that cancels. Coefficient vectors
// therefore rotate with sigma-conjugated Wigner matrices,
// G^n = diag(sigma) d^n diag(sigma), and z-rotations stay diagonal.

// rotWorkspace holds the reusable buffers of the translation kernel.
type rotWorkspace struct {
	flat  []float64    // Wigner stack storage, degree blocks in order
	stack [][]float64  // per-degree views of flat, reused across calls
	half  []float64    // half stack scratch (M2LBatch, M2M, L2L, spilled theta)
	rpow  []float64    // powers of 1/rho; laneSlack spare capacity
	zph   []complex128 // e^{i m phi} scratch; laneSlack spare capacity
	zip   []complex128 // the packed merge's re/im-zipped output, with laneSlack
	// row is an M2M or L2L axial row computed per call (shift, and a child
	// shift whose level has no shared row), for the distance with bits
	// rowRho; rowKind is 0 while row holds none.
	row     []float64
	rowRho  uint64
	rowKind Shift
	// Split re/im packed coefficients, ping-pong pairs of m2lApply, each
	// followed by laneSlack floats the packed body may overwrite.
	aRe, aIm, bRe, bIm []float64
	// The same for m2lApply4, four columns per coefficient, and the
	// columns' geometry; made on the first four-column call (wide).
	aRe4, aIm4, bRe4, bIm4 [][4]float64
	geo                    colGeom
}

func newRotWorkspace(p int) *rotWorkspace {
	pl := sphharm.PackedLen(p)
	sl := pl + laneSlack
	split := make([]float64, 4*sl+axialLen(p)) // and the row behind them
	r := &rotWorkspace{
		flat:  make([]float64, stackLen(p)),
		stack: make([][]float64, p+1),
		half:  make([]float64, halfLen(p)),
		rpow:  make([]float64, 2*p+2, 2*p+2+laneSlack),
		zph:   make([]complex128, p+1, p+1+laneSlack),
		zip:   make([]complex128, pl+laneSlack),
		row:   split[4*sl:],
		aRe:   split[:sl], aIm: split[sl : 2*sl], bRe: split[2*sl : 3*sl], bIm: split[3*sl : 4*sl],
	}
	stackViews(r.stack, r.flat)
	return r
}

// sigma is the basis-conversion sign: (-1)^m for m >= 0, +1 for m < 0.
func sigma(m int) float64 {
	if m > 0 && m%2 != 0 {
		return -1
	}
	return 1
}

// M2M and L2L. Along +z at distance rho the translations are diagonal in
// the order k (j the output degree, n the source degree):
//
//	M2M: M_j^k = sum_{n=k..j} O_n^k A_{j-n}^0 A_n^k rho^{j-n} / A_j^k
//	L2L: L_j^k = sum_{n=j..p} O_n^k A_j^k rho^{n-j} / ((n-j)! A_n^k)
//
// so m2lApply runs them unchanged with these factors (radial powers
// included) as its axial row, +0 outside the ranges, and a row of ones as
// its radial powers: a*1 is exact, and the odd-k sign of the forward
// rotation commutes with any k-diagonal axial step.

// Shift names a translation between a cell and one of its children.
type Shift int

const (
	ShiftM2M Shift = 1 // the child's multipole into the parent's
	ShiftL2L Shift = 2 // the parent's local into the child's
)

// shiftRowInto fills dst (axialLen(p) floats) with the axial row of a
// kind translation over rho along +z.
func shiftRowInto(dst []float64, t *sphharm.Tables, p int, rho float64, kind Shift) {
	var pw [sphharm.MaxOrder + 1]float64
	pw[0] = 1
	for i := 1; i <= p; i++ {
		pw[i] = pw[i-1] * rho
	}
	if kind == ShiftL2L {
		laneRowInto(dst, p, func(j, k, n int) float64 {
			if n < j {
				return 0
			}
			return t.Anm(j, k) * pw[n-j] / (t.Fact[n-j] * t.Anm(n, k))
		})
		return
	}
	laneRowInto(dst, p, func(j, k, n int) float64 {
		if n > j {
			return 0
		}
		return t.Anm(j-n, 0) * t.Anm(n, k) * pw[j-n] / t.Anm(j, k)
	})
}

// scratchRow returns the kind row of rho from the workspace scratch,
// computing it unless the scratch already holds it.
func (w *Workspace) scratchRow(rho float64, kind Shift) []float64 {
	r := w.rot
	if r.rowKind != kind || r.rowRho != math.Float64bits(rho) {
		shiftRowInto(r.row, w.t, w.p, rho, kind)
		r.rowKind, r.rowRho = kind, math.Float64bits(rho)
	}
	return r.row
}

// The eight parent–child offsets. A child's center is its parent's plus
// (±h, ±h, ±h), h the child's half-width; octant o is the sign pattern
// with bit 0 set for +x, bit 1 for +y and bit 2 for +z — the child's slot
// in its parent (geom.Box.Child). Its polar angle depends on the z sign
// alone and its azimuth on the (x, y) signs alone, so the rotations of
// every M2M and L2L of every tree are two half stacks and four phase rows.
type octantSetup struct {
	hl   int          // halfLen(p)
	half []float64    // the half stacks of the theta of z < 0 and of z > 0
	zph  []complex128 // e^{i m phi} per (x, y) sign pair; laneSlack spare capacity
	ones []float64    // the radial powers operand: 2p+2+laneSlack ones
	// The same phases and ones in every column of a four-column
	// translation (colGeom), per (x, y) sign pair.
	wide [4]colGeom
}

var octantSetups [sphharm.MaxOrder + 1]struct {
	once sync.Once
	s    octantSetup
}

// octants returns the order-p octant setup, built once.
func octants(p int) *octantSetup {
	e := &octantSetups[p]
	e.once.Do(func() {
		s, hl, r := &e.s, halfLen(p), newRotWorkspace(p)
		s.hl = hl
		s.half = make([]float64, 2*hl)
		s.zph = make([]complex128, 4*(p+1), 4*(p+1)+laneSlack)
		s.ones = make([]float64, 2*p+2+laneSlack)
		for i := range s.ones {
			s.ones[i] = 1
		}
		for o := 0; o < 8; o++ {
			sign := func(bit int) float64 { return float64(o>>bit&1)*2 - 1 }
			_, theta, phi := geom.Vec3{X: sign(0), Y: sign(1), Z: sign(2)}.Spherical()
			if o&3 == 0 {
				r.halfStackInto(s.half[(o>>2)*hl:][:hl], p, theta)
			}
			if o < 4 {
				fillPhases(s.zph[o*(p+1):][:p+1], phi)
				z := s.zph[o*(p+1):][:p+1]
				s.wide[o] = newColGeom(p)
				s.wide[o].fill(&[4][]complex128{z, z, z, z}, &[4][]float64{s.ones, s.ones, s.ones, s.ones})
			}
		}
	})
	return &e.s
}

// ShiftRows holds the M2M and L2L rows of one tree's levels, keyed by the
// exact bits of the child half-width h (rho = sqrt(3) h): the rows of h0,
// h0/2, h0/4, ..., the children of the root, of its children, and so on.
// It is filled before a step and read-only during it; the zero value
// covers nothing.
type ShiftRows struct {
	p, n int // order, axialLen(p)
	t    *sphharm.Tables
	keys []uint64
	rows []float64 // per key, its M2M row, then its L2L row
}

// Cover makes the order-p rows cover h0/2^i for i < levels. Rows of the
// same order and h0 are kept (and deeper ones appended); another h0
// rebuilds them in place, so the storage is bounded by the most levels
// asked for.
func (s *ShiftRows) Cover(p int, h0 float64, levels int) {
	if s.t == nil || s.p != p {
		*s = ShiftRows{p: p, n: axialLen(p), t: sphharm.NewTables(p)}
	}
	if len(s.keys) > 0 && s.keys[0] != math.Float64bits(h0) {
		s.keys, s.rows = s.keys[:0], s.rows[:0]
	}
	for i := len(s.keys); i < levels; i++ {
		h := math.Ldexp(h0, -i)
		s.keys = append(s.keys, math.Float64bits(h))
		s.rows = append(s.rows, make([]float64, 2*s.n)...)
		row := s.rows[2*i*s.n:]
		shiftRowInto(row[:s.n], s.t, p, math.Sqrt(3)*h, ShiftM2M)
		shiftRowInto(row[s.n:2*s.n], s.t, p, math.Sqrt(3)*h, ShiftL2L)
	}
}

// row returns the kind row of h, or nil when s does not cover h.
func (s *ShiftRows) row(h float64, kind Shift) []float64 {
	if s == nil || len(s.keys) == 0 {
		return nil
	}
	_, e0 := math.Frexp(math.Float64frombits(s.keys[0]))
	_, e := math.Frexp(h)
	if i := e0 - e; i >= 0 && i < len(s.keys) && s.keys[i] == math.Float64bits(h) {
		return s.rows[(2*i+int(kind)-1)*s.n:][:s.n]
	}
	return nil
}

// childSetup returns the kernel operands of a kind translation between a
// cell and its child in slot, h being the child's half-width: the octant
// setup, the offset's octant and its half stack, and the level's axial row
// from rows. An M2M offset runs from parent to child, the octant of slot;
// an L2L offset the other way, the opposite octant. The phases are those
// of the octant's (x, y) sign pair, o&3. It panics when rows does not
// cover h: the tree's sweeps run after the step's Cover, so a miss is a
// driver that skipped it.
func (w *Workspace) childSetup(kind Shift, slot int, h float64, rows *ShiftRows) (s *octantSetup, o int, half, ax []float64) {
	s, o = octants(w.p), slot
	if kind == ShiftL2L {
		o ^= 7
	}
	if ax = rows.row(h, kind); ax == nil {
		panic("expansion: child shift at a half-width the ShiftRows do not cover")
	}
	return s, o, s.half[(o>>2)*s.hl:][:s.hl], ax
}

// ChildShift accumulates into dst the kind translation of src between a
// cell and its child in slot (the child's index in its parent's
// Children), h being the child's half-width: for ShiftM2M dst is the
// parent's multipole and src the child's, for ShiftL2L dst is the child's
// local and src the parent's. rows must cover h (ShiftRows.Cover).
func (w *Workspace) ChildShift(dst, src Expansion, kind Shift, slot int, h float64, rows *ShiftRows) {
	s, o, half, ax := w.childSetup(kind, slot, h, rows)
	w.m2lApply(dst, src.C, half, s.zph[(o&3)*(w.p+1):][:w.p+1], s.ones, ax)
}

// ChildShift4 is ChildShift over four columns; column c ends bit-identical
// to ChildShift on column c.
func (w *Workspace) ChildShift4(dst, src *[4]Expansion, kind Shift, slot int, h float64, rows *ShiftRows) {
	s, o, half, ax := w.childSetup(kind, slot, h, rows)
	g := &s.wide[o&3]
	w.m2lApply4(dst, src, half, g.zph, g.rpow, ax)
}

// M2M translates the child multipole o centered at from into the parent
// expansion m centered at to (accumulating), for any offset: the kernel
// over a setup computed per call into the workspace scratch, as M2LBatch
// does for M2L. The tree's sweeps use ChildShift.
func (w *Workspace) M2M(m Expansion, to geom.Vec3, o Expansion, from geom.Vec3) {
	w.shift(m, o, from.Sub(to), ShiftM2M)
}

// L2L translates the parent local expansion o centered at from into the
// child expansion l centered at to (accumulating), for any offset (see
// M2M; the tree's sweeps use ChildShift).
func (w *Workspace) L2L(l Expansion, to geom.Vec3, o Expansion, from geom.Vec3) {
	w.shift(l, o, from.Sub(to), ShiftL2L)
}

func (w *Workspace) shift(dst, src Expansion, d geom.Vec3, kind Shift) {
	r := w.rot
	rho, theta, phi := d.Spherical()
	r.halfStackInto(r.half, w.p, theta)
	fillPhases(r.zph, phi)
	w.m2lApply(dst, src.C, r.half, r.zph, octants(w.p).ones, w.scratchRow(rho, kind))
}
