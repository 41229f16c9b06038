// Package kernels implements the direct (P2P) pairwise interaction kernels:
// the Laplace/gravity kernel used by the paper's gravitational test problem
// and the regularized Stokeslet kernel of Cortez used by its fluid-dynamics
// problem.
package kernels

import (
	"math"
	"slices"

	"afmm/internal/geom"
)

// Gravity is the softened Laplace kernel. With Softening = 0 it is the pure
// 1/r potential used by the far-field expansions; a small softening is
// conventional for collisional N-body time integration.
type Gravity struct {
	// G is the gravitational constant. The induced acceleration on a
	// target at x from a source of mass m at y is -G m (x-y)/|x-y|^3.
	G float64
	// Softening is the Plummer softening length eps; the effective
	// distance is sqrt(r^2 + eps^2).
	Softening float64
}

// Accumulate adds the potential and acceleration at target x due to a
// source of mass m at y. A self-pair (zero distance) contributes nothing.
func (k Gravity) Accumulate(x, y geom.Vec3, m float64) (phi float64, acc geom.Vec3) {
	d := x.Sub(y)
	if d.Norm2() == 0 {
		return 0, geom.Vec3{} // self pair (or exact coincidence): no force
	}
	r2 := d.Norm2() + k.Softening*k.Softening
	inv := 1 / math.Sqrt(r2)
	inv3 := inv * inv * inv
	return -k.G * m * inv, d.Scale(-k.G * m * inv3)
}

// GravitySpan is one source list of a near-field row: the positions and
// masses of a source leaf's bodies, local or a dmem node's ghost copy. The
// shorter of the two slices bounds it.
type GravitySpan struct {
	Pos  []geom.Vec3
	Mass []float64
}

func (s GravitySpan) sources() int { return min(len(s.Pos), len(s.Mass)) }

func (s GravitySpan) cut(lo, hi int) GravitySpan {
	return GravitySpan{Pos: s.Pos[lo:hi], Mass: s.Mass[lo:hi]}
}

// P2PRow accumulates into phi and acc (parallel to the targets xt) the
// potential and acceleration due to every span of spans, in order: the
// bits of one P2PScalar call per span. Where the host has AVX2 the targets
// run four at a time through the packed row body of p2p_amd64.s — one
// target per vector lane, each block's accumulators held in registers
// across all spans, every lane performing P2PScalar's IEEE operations in
// its order, a last block of one to three targets padded; elsewhere it is
// P2PScalar span by span.
func (k Gravity) P2PRow(xt []geom.Vec3, phi []float64, acc []geom.Vec3, spans []GravitySpan) {
	if packedOK {
		k.rowPacked(xt, phi, acc, spans)
		return
	}
	for _, s := range spans {
		n := s.sources()
		k.P2PScalar(xt, phi, acc, s.Pos[:n], s.Mass[:n])
	}
}

// P2P is P2PRow with the one span (ys, ms).
func (k Gravity) P2P(xt []geom.Vec3, phi []float64, acc []geom.Vec3, ys []geom.Vec3, ms []float64) {
	s := [1]GravitySpan{{Pos: ys, Mass: ms}}
	k.P2PRow(xt, phi, acc, s[:])
}

// P2PScalar is the portable reference kernel: one target at a time over all
// sources. Run span by span it is P2PRow on hosts without the packed body,
// and it is the oracle of the bit-identity tests. Every product is wrapped
// in an explicit float64 conversion — a rounding point by the language
// spec — so no compiler may fuse it into a multiply-add and the function
// computes the same bits on every target.
func (k Gravity) P2PScalar(xt []geom.Vec3, phi []float64, acc []geom.Vec3, ys []geom.Vec3, ms []float64) {
	eps2 := float64(k.Softening * k.Softening)
	for i := range xt {
		p := phi[i]
		a := acc[i]
		xi := xt[i]
		for j := range ys {
			y := ys[j]
			dx, dy, dz := xi.X-y.X, xi.Y-y.Y, xi.Z-y.Z
			r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
			if r2 == 0 {
				continue // self pair or exact coincidence
			}
			r2 += eps2
			inv := 1 / math.Sqrt(r2)
			gm := k.G * ms[j]
			t := float64(gm * inv)
			p -= t
			f := t * inv * inv
			a.X -= float64(f * dx)
			a.Y -= float64(f * dy)
			a.Z -= float64(f * dz)
		}
		phi[i] = p
		acc[i] = a
	}
}

// GravityPair is one upper partner B of a mutual near-field row: its
// bodies, as a GravitySpan, and React, parallel to them, where the pair
// body adds each body's reaction — potential, then acceleration x, y, z.
type GravityPair struct {
	Pos   []geom.Vec3
	Mass  []float64
	React [][4]float64
}

func (s GravityPair) sources() int { return min(len(s.Pos), len(s.Mass)) }

func (s GravityPair) cut(lo, hi int) GravityPair {
	return GravityPair{Pos: s.Pos[lo:hi], Mass: s.Mass[lo:hi], React: s.React[lo:hi]}
}

// PairLanes is the scratch of both kernels' pair bodies: the packed
// bodies' four lane sums of each reaction component per source of one
// call, and P2PReact's discarded targets' half where it runs the whole
// pair body. The zero value is ready; it grows to the largest call and is
// reused.
type PairLanes struct {
	buf []float64
	phi []float64
	acc []geom.Vec3
}

// P2PPair evaluates each unordered pair between the targets xt (masses
// mt) and the bodies of every pair of pairs once, for both sides. The
// targets take the sources exactly as P2PRow over the pairs' spans does.
// Each source b takes the reaction: four lane sums, lane l over the
// targets i ≡ l (mod 4) in order, each term P2PScalar's with b as the
// target and x_i as the source, folded as (l0 + l1) + (l2 + l3) and added
// to its React entry — the bits of P2PPairScalar pair by pair. Where the
// host has AVX2 the targets run four at a time through the packed pair
// body of p2p_amd64.s, one target per lane, so one square root and one
// division serve four unordered pairs; elsewhere it is P2PPairScalar.
func (k Gravity) P2PPair(xt []geom.Vec3, mt []float64, phi []float64, acc []geom.Vec3, pairs []GravityPair, lanes *PairLanes) {
	if packedOK {
		k.pairPacked(xt, mt, phi, acc, pairs, lanes)
		return
	}
	for _, p := range pairs {
		n := p.sources()
		k.P2PPairScalar(xt, mt, phi, acc, p.Pos[:n], p.Mass[:n], p.React[:n])
	}
}

// P2PReact is P2PPair's reaction half alone: it adds to every pair's
// React entries exactly what P2PPair(xt, mt, ...) would, without the
// targets' half. Where the host has AVX2 it runs the packed pair body's
// reaction operations alone, at the cost of a one-way walk; elsewhere
// P2PPairScalar pair by pair, into a discarded copy of the targets'
// accumulators. A dmem node computes its half of a pair whose row another
// node owns this way.
func (k Gravity) P2PReact(xt []geom.Vec3, mt []float64, pairs []GravityPair, lanes *PairLanes) {
	if packedOK {
		k.reactPacked(xt, mt, pairs, lanes)
		return
	}
	lanes.phi = slices.Grow(lanes.phi[:0], len(xt))[:len(xt)]
	lanes.acc = slices.Grow(lanes.acc[:0], len(xt))[:len(xt)]
	for _, p := range pairs {
		n := p.sources()
		k.P2PPairScalar(xt, mt, lanes.phi, lanes.acc, p.Pos[:n], p.Mass[:n], p.React[:n])
	}
}

// P2PPairScalar is the portable reference of the pair body over one
// source span, and its oracle: the targets' half is P2PScalar's walk,
// and source j's reaction is the four lane sums P2PPair describes,
// folded into react[j]. Products carry explicit float64 rounding points
// for the reason given at P2PScalar.
func (k Gravity) P2PPairScalar(xt []geom.Vec3, mt []float64, phi []float64, acc []geom.Vec3, ys []geom.Vec3, ms []float64, react [][4]float64) {
	eps2 := float64(k.Softening * k.Softening)
	for j := range ys {
		y := ys[j]
		gm := k.G * ms[j]
		var lane [4][4]float64
		for i := range xt {
			xi := xt[i]
			dx, dy, dz := xi.X-y.X, xi.Y-y.Y, xi.Z-y.Z
			r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
			if r2 == 0 { // self pair or exact coincidence: neither side
				continue
			}
			inv := 1 / math.Sqrt(r2+eps2)
			t := float64(gm * inv)
			phi[i] -= t
			f := t * inv * inv
			acc[i].X -= float64(f * dx)
			acc[i].Y -= float64(f * dy)
			acc[i].Z -= float64(f * dz)
			u := float64(float64(k.G*mt[i]) * inv)
			g := u * inv * inv
			l := &lane[i&3]
			l[0] -= u
			l[1] -= float64(g * (y.X - xi.X))
			l[2] -= float64(g * (y.Y - xi.Y))
			l[3] -= float64(g * (y.Z - xi.Z))
		}
		r := &react[j]
		for c := range r {
			r[c] += (lane[0][c] + lane[1][c]) + (lane[2][c] + lane[3][c])
		}
	}
}

// Stokeslet is the regularized Stokeslet kernel of Cortez (2001/2005). A
// point force f at y induces a fluid velocity at x:
//
//	u(x) = (1 / 8 pi mu) [ f (r^2 + 2 eps^2) / (r^2 + eps^2)^{3/2}
//	                      + (f . d) d / (r^2 + eps^2)^{3/2} ]
//
// with d = x - y, r = |d| and blob parameter eps. As eps -> 0 this reduces
// to the singular Stokeslet (Oseen tensor).
type Stokeslet struct {
	Mu  float64 // dynamic viscosity
	Eps float64 // regularization (blob) parameter
}

// Velocity returns the induced velocity at x from a regularized point force
// f located at y.
func (k Stokeslet) Velocity(x, y geom.Vec3, f geom.Vec3) geom.Vec3 {
	d := x.Sub(y)
	r2 := d.Norm2()
	e2 := k.Eps * k.Eps
	den := math.Pow(r2+e2, 1.5)
	if den == 0 {
		return geom.Vec3{}
	}
	c := 1 / (8 * math.Pi * k.Mu * den)
	h1 := (r2 + 2*e2) * c
	h2 := d.Dot(f) * c
	return f.Scale(h1).Add(d.Scale(h2))
}

// SingularVelocity returns the velocity induced by a singular Stokeslet —
// the eps -> 0 limit, used to validate the far-field harmonic
// decomposition.
func (k Stokeslet) SingularVelocity(x, y geom.Vec3, f geom.Vec3) geom.Vec3 {
	d := x.Sub(y)
	r := d.Norm()
	if r == 0 {
		return geom.Vec3{}
	}
	c := 1 / (8 * math.Pi * k.Mu)
	return f.Scale(c / r).Add(d.Scale(c * d.Dot(f) / (r * r * r)))
}

// StokesletSpan is one source list of a near-field row for the
// Stokeslet: positions and point forces, bounded by the shorter slice.
type StokesletSpan struct {
	Pos   []geom.Vec3
	Force []geom.Vec3
}

func (s StokesletSpan) sources() int { return min(len(s.Pos), len(s.Force)) }

func (s StokesletSpan) cut(lo, hi int) StokesletSpan {
	return StokesletSpan{Pos: s.Pos[lo:hi], Force: s.Force[lo:hi]}
}

// P2PRow accumulates regularized Stokeslet velocities at targets xt due to
// every span of spans, in order, into vel; dispatched exactly as
// Gravity.P2PRow, with the bits of one P2PScalar call per span.
func (k Stokeslet) P2PRow(xt []geom.Vec3, vel []geom.Vec3, spans []StokesletSpan) {
	if packedOK {
		k.rowPacked(xt, vel, spans)
		return
	}
	for _, s := range spans {
		n := s.sources()
		k.P2PScalar(xt, vel, s.Pos[:n], s.Force[:n])
	}
}

// P2P is P2PRow with the one span (ys, fs).
func (k Stokeslet) P2P(xt []geom.Vec3, vel []geom.Vec3, ys []geom.Vec3, fs []geom.Vec3) {
	s := [1]StokesletSpan{{Pos: ys, Force: fs}}
	k.P2PRow(xt, vel, s[:])
}

// consts returns the per-call constants of the pair walk: eps^2, 2 eps^2
// and 1/(8 pi mu), rounded here so that no caller fuses them into a sum.
func (k Stokeslet) consts() (e2, twoE2, c0 float64) {
	e2 = float64(k.Eps * k.Eps)
	return e2, float64(2 * e2), 1 / (8 * math.Pi * k.Mu)
}

// P2PScalar is the portable Stokeslet reference kernel, one target at a time
// over all sources; products carry explicit float64 rounding points for the
// reason given at Gravity.P2PScalar.
func (k Stokeslet) P2PScalar(xt []geom.Vec3, vel []geom.Vec3, ys []geom.Vec3, fs []geom.Vec3) {
	e2, twoE2, c0 := k.consts()
	for i := range xt {
		v := vel[i]
		xi := xt[i]
		for j := range ys {
			y, f := ys[j], fs[j]
			dx, dy, dz := xi.X-y.X, xi.Y-y.Y, xi.Z-y.Z
			r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
			// dot precedes the square root on purpose: SQRTSD merges into
			// its destination register, and with the dot product's
			// temporaries just freed the compiler picks one last written
			// early in the iteration. Computed after the divide, the
			// root waits for the previous pair's tail: 13.5 against 5.4
			// ns/pair on the reference host.
			dot := float64(dx*f.X) + float64(dy*f.Y) + float64(dz*f.Z)
			den := r2 + e2
			den15 := den * math.Sqrt(den)
			if den15 == 0 {
				continue
			}
			c := c0 / den15
			h1 := (r2 + twoE2) * c
			h2 := dot * c
			v.X += float64(f.X*h1) + float64(dx*h2)
			v.Y += float64(f.Y*h1) + float64(dy*h2)
			v.Z += float64(f.Z*h1) + float64(dz*h2)
		}
		vel[i] = v
	}
}

// StokesletPair is one upper partner B of a mutual near-field row for the
// Stokeslet: its bodies, as a StokesletSpan, and React, parallel to them,
// where the pair body adds each body's velocity reaction.
type StokesletPair struct {
	Pos   []geom.Vec3
	Force []geom.Vec3
	React []geom.Vec3
}

func (s StokesletPair) sources() int { return min(len(s.Pos), len(s.Force)) }

func (s StokesletPair) cut(lo, hi int) StokesletPair {
	return StokesletPair{Pos: s.Pos[lo:hi], Force: s.Force[lo:hi], React: s.React[lo:hi]}
}

// P2PPair is Gravity.P2PPair for the Stokeslet: each unordered pair
// between the targets xt (forces ft) and the bodies of every pair of
// pairs is evaluated once. The targets take the sources exactly as P2PRow
// over the pairs' spans does; each source b takes the velocity G(d)·f_i
// of every target i as four lane sums, lane l over the targets
// i ≡ l (mod 4) in order, folded as (l0 + l1) + (l2 + l3) into its React
// entry — the bits of P2PPairScalar pair by pair. The kernel is even in d,
// so the reaction reuses the target's r², square root, division and h1
// and needs only its own d·f_i. Where the host has AVX2 the targets run
// four at a time through the packed pair body of p2p_amd64.s; elsewhere it
// is P2PPairScalar.
func (k Stokeslet) P2PPair(xt, ft, vel []geom.Vec3, pairs []StokesletPair, lanes *PairLanes) {
	if packedOK {
		k.pairPacked(xt, ft, vel, pairs, lanes)
		return
	}
	for _, p := range pairs {
		n := p.sources()
		k.P2PPairScalar(xt, ft, vel, p.Pos[:n], p.Force[:n], p.React[:n])
	}
}

// P2PReact is P2PPair's reaction half alone: it adds to every pair's
// React entries exactly what P2PPair(xt, ft, ...) would, by running
// P2PPair into a discarded copy of the targets' velocities.
func (k Stokeslet) P2PReact(xt, ft []geom.Vec3, pairs []StokesletPair, lanes *PairLanes) {
	lanes.acc = slices.Grow(lanes.acc[:0], len(xt))[:len(xt)]
	if packedOK {
		k.pairPacked(xt, ft, lanes.acc, pairs, lanes)
		return
	}
	for _, p := range pairs {
		n := p.sources()
		k.P2PPairScalar(xt, ft, lanes.acc, p.Pos[:n], p.Force[:n], p.React[:n])
	}
}

// P2PPairScalar is the portable reference of the Stokeslet pair body over
// one source span, and its oracle: the targets' half is P2PScalar's walk,
// and source j's reaction from target i is f_i·h1 + d·((d·f_i)·c) with
// the pair's d = x_i - y_j, h1 and c. That is P2PScalar's term with the
// roles swapped, whose d' = -d negates both d'·f_i and d' exactly, except
// that a term may come out as a zero of the other sign: the lane sums
// start at +0 and a sum from +0 never becomes -0, so the fold is the same.
// Products carry explicit float64 rounding points for the reason given at
// Gravity.P2PScalar.
func (k Stokeslet) P2PPairScalar(xt, ft, vel []geom.Vec3, ys, fs []geom.Vec3, react []geom.Vec3) {
	e2, twoE2, c0 := k.consts()
	for j := range ys {
		y, f := ys[j], fs[j]
		var lane [4]geom.Vec3
		for i := range xt {
			xi := xt[i]
			dx, dy, dz := xi.X-y.X, xi.Y-y.Y, xi.Z-y.Z
			r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
			dot := float64(dx*f.X) + float64(dy*f.Y) + float64(dz*f.Z)
			den := r2 + e2
			den15 := den * math.Sqrt(den)
			if den15 == 0 {
				continue
			}
			c := c0 / den15
			h1 := (r2 + twoE2) * c // the reaction's too
			h2 := dot * c
			vel[i].X += float64(f.X*h1) + float64(dx*h2)
			vel[i].Y += float64(f.Y*h1) + float64(dy*h2)
			vel[i].Z += float64(f.Z*h1) + float64(dz*h2)
			g := ft[i]
			h2 = (float64(dx*g.X) + float64(dy*g.Y) + float64(dz*g.Z)) * c
			lane[i&3].X += float64(g.X*h1) + float64(dx*h2)
			lane[i&3].Y += float64(g.Y*h1) + float64(dy*h2)
			lane[i&3].Z += float64(g.Z*h1) + float64(dz*h2)
		}
		r := &react[j]
		r.X += (lane[0].X + lane[1].X) + (lane[2].X + lane[3].X)
		r.Y += (lane[0].Y + lane[1].Y) + (lane[2].Y + lane[3].Y)
		r.Z += (lane[0].Z + lane[1].Z) + (lane[2].Z + lane[3].Z)
	}
}

// FlopsPerGravityInteraction is the approximate floating-point cost of one
// gravity P2P pair, used by the device cost models.
const FlopsPerGravityInteraction = 20

// FlopsPerStokesletInteraction is the approximate cost of one regularized
// Stokeslet pair.
const FlopsPerStokesletInteraction = 34
