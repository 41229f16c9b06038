package expansion

import (
	"afmm/internal/geom"
	"afmm/internal/sphharm"
)

// Leaf operators: P2M and L2P over the bodies of one leaf, at width 1 (one
// expansion) and width 4 (four expansions of one center, the Stokeslet's
// harmonic passes). Each entry point has two bodies behind packedOK, like
// the translation kernel:
//
//   - the scalar one runs the per-body operators (P2M, P2M4, L2P, L2P4)
//     body after body, and is the reference;
//   - the packed one (leaf_amd64.s) evaluates the harmonics of four bodies
//     at once, one body per vector lane, each lane running the scalar
//     recurrence's operations in its order. P2M then adds the four bodies'
//     terms to every coefficient in body order, and L2P contracts every
//     lane with the local in evalLocal's order, so both bodies leave the
//     same bits. A last group of one to three bodies pads its spare lanes
//     with the center (offset 0) and discards them.

// laneGeom is the geometry of four bodies' offsets from a center, lane b
// for body b: x, y, z, |v|^2 (radius2's rounding) and 2x, 2y, 2z.
type laneGeom [7][laneWidth]float64

// fill lays out the offsets of the (at most four) bodies at pos.
func (g *laneGeom) fill(center geom.Vec3, pos []geom.Vec3) {
	*g = laneGeom{}
	for b, x := range pos {
		v := x.Sub(center)
		g[0][b], g[1][b], g[2][b] = v.X, v.Y, v.Z
		g[3][b] = radius2(v.X, v.Y, v.Z)
		g[4][b], g[5][b], g[6][b] = 2*v.X, 2*v.Y, 2*v.Z
	}
}

// laneGrad is the float count of one coefficient in the packed L2P
// scratch: R, dR/dx, dR/dy, dR/dz, each re then im, each four lanes. The
// packed P2M scratch holds R alone, a quarter of that.
const laneGrad = 8 * laneWidth

// laneZeros stands in for degree n-2 at the first step of a packed
// recurrence, as the scalar forms start from zero values.
var laneZeros [laneGrad]float64

// laneScratch returns the packed bodies' scratch for order p, made on the
// workspace's first leaf call; the reslice asserts p does not exceed the
// workspace order the bodies write up to.
func (w *Workspace) laneScratch(p int) []float64 {
	if w.lanes == nil {
		w.lanes = make([]float64, laneGrad*sphharm.PackedLen(w.p))
	}
	return w.lanes[:laneGrad*sphharm.PackedLen(p)]
}

// P2MLeaf accumulates into m (centered at center) the multipoles of the
// charges q[i] at pos[i], in body order: m ends bit-identical to P2M over
// the bodies one by one.
func (w *Workspace) P2MLeaf(m Expansion, center geom.Vec3, pos []geom.Vec3, q []float64) {
	if !packedOK {
		for i := range pos {
			w.P2M(m, center, pos[i], q[i])
		}
		return
	}
	lanes := w.laneScratch(m.P)
	var g laneGeom
	var qb [laneWidth]float64
	for k := 0; k < len(pos); k += laneWidth {
		nb := min(laneWidth, len(pos)-k)
		g.fill(center, pos[k:k+nb])
		copy(qb[:], q[k:k+nb])
		regularAVX2(m.P, &lanes[0], &g, &recur[0])
		p2mAccAVX2(len(m.C), nb, &lanes[0], &qb, &m.C[0])
	}
}

// P2MLeaf4 is P2MLeaf for the four charges q(i) of body i into the four
// expansions m[c] of one center: m[c] ends bit-identical to P2M4 over the
// bodies one by one, and so to P2M of the charges q(i)[c].
func (w *Workspace) P2MLeaf4(m *[4]Expansion, center geom.Vec3, pos []geom.Vec3, q func(i int) [4]float64) {
	if !packedOK {
		for i := range pos {
			w.P2M4(m, center, pos[i], q(i))
		}
		return
	}
	lanes := w.laneScratch(m[0].P)
	var g laneGeom
	for k := 0; k < len(pos); k += laneWidth {
		nb := min(laneWidth, len(pos)-k)
		g.fill(center, pos[k:k+nb])
		regularAVX2(m[0].P, &lanes[0], &g, &recur[0])
		var qb [4][laneWidth]float64 // column c, body b
		for b := 0; b < nb; b++ {
			qc := q(k + b)
			for c := range qb {
				qb[c][b] = qc[c]
			}
		}
		for c := range m {
			p2mAccAVX2(len(m[c].C), nb, &lanes[0], &qb[c], &m[c].C[0])
		}
	}
}

// L2PLeaf evaluates the local l (centered at center) at every pos[i] and
// hands body i's potential and gradient to emit, in body order: each
// bit-identical to L2P(l, center, pos[i]).
func (w *Workspace) L2PLeaf(l Expansion, center geom.Vec3, pos []geom.Vec3, emit func(i int, phi float64, grad geom.Vec3)) {
	if !packedOK {
		for i := range pos {
			phi, grad := w.L2P(l, center, pos[i])
			emit(i, phi, grad)
		}
		return
	}
	lanes := w.laneScratch(l.P)
	var g laneGeom
	for k := 0; k < len(pos); k += laneWidth {
		nb := min(laneWidth, len(pos)-k)
		g.fill(center, pos[k:k+nb])
		regGradAVX2(l.P, &lanes[0], &g, &recur[0])
		var out [4][laneWidth]float64 // phi, gx, gy, gz
		localAVX2(l.P, &l.C[0], &lanes[0], &out)
		for b := 0; b < nb; b++ {
			emit(k+b, out[0][b], geom.Vec3{X: out[1][b], Y: out[2][b], Z: out[3][b]})
		}
	}
}

// L2PLeaf4 is L2PLeaf for the four locals l[c] of one center: what it
// hands emit for body i is bit-identical to L2P4(l, center, pos[i]).
func (w *Workspace) L2PLeaf4(l *[4]Expansion, center geom.Vec3, pos []geom.Vec3, emit func(i int, phi [4]float64, grad [4]geom.Vec3)) {
	if !packedOK {
		for i := range pos {
			phi, grad := w.L2P4(l, center, pos[i])
			emit(i, phi, grad)
		}
		return
	}
	lanes := w.laneScratch(l[0].P)
	var g laneGeom
	for k := 0; k < len(pos); k += laneWidth {
		nb := min(laneWidth, len(pos)-k)
		g.fill(center, pos[k:k+nb])
		regGradAVX2(l[0].P, &lanes[0], &g, &recur[0])
		var out [4][4][laneWidth]float64 // column c: phi, gx, gy, gz
		for c := range l {
			localAVX2(l[c].P, &l[c].C[0], &lanes[0], &out[c])
		}
		for b := 0; b < nb; b++ {
			var phi [4]float64
			var grad [4]geom.Vec3
			for c := range out {
				phi[c], grad[c] = out[c][0][b], geom.Vec3{X: out[c][1][b], Y: out[c][2][b], Z: out[c][3][b]}
			}
			emit(k+b, phi, grad)
		}
	}
}
