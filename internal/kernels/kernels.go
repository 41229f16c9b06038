// Package kernels implements the direct (P2P) pairwise interaction kernels:
// the Laplace/gravity kernel used by the paper's gravitational test problem
// and the regularized Stokeslet kernel of Cortez used by its fluid-dynamics
// problem.
package kernels

import (
	"math"

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

// p2pTile is the target-block width of the tiled gravity P2P kernel: the
// tile's accumulators live in registers while each source position/mass is
// loaded once and applied to the whole tile, dividing the source-stream
// memory traffic of the dominant near-field loop by the tile width. Width 2
// is the measured optimum for Go's scalar codegen on x86-64: each gravity
// target keeps 4 accumulator lanes (phi + 3 acc) plus its position live, so
// wider tiles overflow the 16-entry vector register file and spill; on
// divider-throughput-bound hosts (where 1/sqrt dominates) width 2 is at
// parity with the scalar walk, and on memory-bound hosts it wins by halving
// the stream.
const p2pTile = 2

// P2P computes the mutual interactions of targets (positions xt) against
// sources (positions ys, masses ms), accumulating potential into phi and
// acceleration into acc (parallel to xt). It is the reference CPU kernel;
// the virtual GPU executes the numerically identical computation. The loop
// is tiled over targets but evaluates the per-pair arithmetic of P2PScalar
// term-for-term, so results are bit-identical to the scalar kernel.
func (k Gravity) P2P(xt []geom.Vec3, phi []float64, acc []geom.Vec3, ys []geom.Vec3, ms []float64) {
	eps2 := k.Softening * k.Softening
	n := len(ys)
	if n > len(ms) {
		n = len(ms)
	}
	ys = ys[:n]
	ms = ms[:n]
	i := 0
	for ; i+p2pTile <= len(xt); i += p2pTile {
		x0, x1 := xt[i], xt[i+1]
		p0, p1 := phi[i], phi[i+1]
		a0, a1 := acc[i], acc[i+1]
		for j := 0; j < n; j++ {
			y := ys[j]
			gm := k.G * ms[j]
			{
				dx, dy, dz := x0.X-y.X, x0.Y-y.Y, x0.Z-y.Z
				r2 := dx*dx + dy*dy + dz*dz
				if r2 != 0 {
					r2 += eps2
					inv := 1 / math.Sqrt(r2)
					p0 -= gm * inv
					f := gm * inv * inv * inv
					a0.X -= f * dx
					a0.Y -= f * dy
					a0.Z -= f * dz
				}
			}
			{
				dx, dy, dz := x1.X-y.X, x1.Y-y.Y, x1.Z-y.Z
				r2 := dx*dx + dy*dy + dz*dz
				if r2 != 0 {
					r2 += eps2
					inv := 1 / math.Sqrt(r2)
					p1 -= gm * inv
					f := gm * inv * inv * inv
					a1.X -= f * dx
					a1.Y -= f * dy
					a1.Z -= f * dz
				}
			}
		}
		phi[i], phi[i+1] = p0, p1
		acc[i], acc[i+1] = a0, a1
	}
	if i < len(xt) {
		k.P2PScalar(xt[i:], phi[i:], acc[i:], ys, ms)
	}
}

// P2PScalar is the untiled reference kernel (the pre-tiling P2P), retained
// as the remainder loop of the tiled path and as the A/B baseline for the
// kernel benchmarks and bit-identity tests.
func (k Gravity) P2PScalar(xt []geom.Vec3, phi []float64, acc []geom.Vec3, ys []geom.Vec3, ms []float64) {
	eps2 := k.Softening * k.Softening
	for i := range xt {
		p := phi[i]
		a := acc[i]
		xi := xt[i]
		for j := range ys {
			d := xi.Sub(ys[j])
			r2 := d.Norm2()
			if r2 == 0 {
				continue // self pair or exact coincidence
			}
			r2 += eps2
			inv := 1 / math.Sqrt(r2)
			gm := k.G * ms[j]
			p -= gm * inv
			f := gm * inv * inv * inv
			a.X -= f * d.X
			a.Y -= f * d.Y
			a.Z -= f * d.Z
		}
		phi[i] = p
		acc[i] = a
	}
}

// P2P32 is the float32 near-field kernel: sources arrive as float32 SoA
// (packed by octree.SourceGather.Pack32), per-pair arithmetic runs in
// float32 — halving the source memory stream and using the cheaper
// single-precision square root — and each target's partial sums widen to
// float64 once, when added to phi/acc. The per-target float32 accumulation
// bounds the relative error by roughly eps32 * n_src, which is what the
// solver's precision gate checks before enabling this path.
func (k Gravity) P2P32(xt []geom.Vec3, phi []float64, acc []geom.Vec3, sx, sy, sz, sm []float32) {
	eps2 := float32(k.Softening * k.Softening)
	g := float32(k.G)
	n := len(sx)
	if len(sy) < n {
		n = len(sy)
	}
	if len(sz) < n {
		n = len(sz)
	}
	if len(sm) < n {
		n = len(sm)
	}
	sx, sy, sz, sm = sx[:n], sy[:n], sz[:n], sm[:n]
	for i := range xt {
		xi := xt[i]
		tx, ty, tz := float32(xi.X), float32(xi.Y), float32(xi.Z)
		var p, ax, ay, az float32
		for j := 0; j < n; j++ {
			dx, dy, dz := tx-sx[j], ty-sy[j], tz-sz[j]
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				continue
			}
			r2 += eps2
			inv := float32(1) / float32(math.Sqrt(float64(r2)))
			gm := g * sm[j]
			p -= gm * inv
			f := gm * inv * inv * inv
			ax -= f * dx
			ay -= f * dy
			az -= f * dz
		}
		phi[i] += float64(p)
		a := acc[i]
		a.X += float64(ax)
		a.Y += float64(ay)
		a.Z += float64(az)
		acc[i] = a
	}
}

// P2P32AoS runs the float32 near-field arithmetic over float64 AoS source
// slices, converting on the fly. It is the NearFloat32 path for consumers
// without a gather buffer (the virtual-GPU per-pair walk).
func (k Gravity) P2P32AoS(xt []geom.Vec3, phi []float64, acc []geom.Vec3, ys []geom.Vec3, ms []float64) {
	eps2 := float32(k.Softening * k.Softening)
	g := float32(k.G)
	n := len(ys)
	if n > len(ms) {
		n = len(ms)
	}
	ys = ys[:n]
	ms = ms[:n]
	for i := range xt {
		xi := xt[i]
		tx, ty, tz := float32(xi.X), float32(xi.Y), float32(xi.Z)
		var p, ax, ay, az float32
		for j := 0; j < n; j++ {
			y := ys[j]
			dx, dy, dz := tx-float32(y.X), ty-float32(y.Y), tz-float32(y.Z)
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				continue
			}
			r2 += eps2
			inv := float32(1) / float32(math.Sqrt(float64(r2)))
			gm := g * float32(ms[j])
			p -= gm * inv
			f := gm * inv * inv * inv
			ax -= f * dx
			ay -= f * dy
			az -= f * dz
		}
		phi[i] += float64(p)
		a := acc[i]
		a.X += float64(ax)
		a.Y += float64(ay)
		a.Z += float64(az)
		acc[i] = a
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

// P2P accumulates regularized Stokeslet velocities at targets xt due to
// point forces fs at ys into vel: P2PScalar over the sources both ys and fs
// cover. Unlike Gravity.P2P it is not tiled over targets: a Stokeslet
// target keeps 6 live lanes (3 velocity accumulators + 3 position
// components) against gravity's 4+3, so even a 2-wide tile overflows the
// x86-64 scalar register file and measured 14-27% slower than the scalar
// walk under Go's codegen.
func (k Stokeslet) P2P(xt []geom.Vec3, vel []geom.Vec3, ys []geom.Vec3, fs []geom.Vec3) {
	n := len(ys)
	if n > len(fs) {
		n = len(fs)
	}
	k.P2PScalar(xt, vel, ys[:n], fs[:n])
}

// P2PScalar is the Stokeslet pair walk, one target at a time over all
// sources: the whole of P2P's arithmetic, and the baseline the kernel
// benchmarks name.
func (k Stokeslet) P2PScalar(xt []geom.Vec3, vel []geom.Vec3, ys []geom.Vec3, fs []geom.Vec3) {
	e2 := k.Eps * k.Eps
	c0 := 1 / (8 * math.Pi * k.Mu)
	for i := range xt {
		v := vel[i]
		xi := xt[i]
		for j := range ys {
			d := xi.Sub(ys[j])
			r2 := d.Norm2()
			den := r2 + e2
			den15 := den * math.Sqrt(den)
			if den15 == 0 {
				continue
			}
			c := c0 / den15
			f := fs[j]
			h1 := (r2 + 2*e2) * c
			h2 := d.Dot(f) * c
			v.X += f.X*h1 + d.X*h2
			v.Y += f.Y*h1 + d.Y*h2
			v.Z += f.Z*h1 + d.Z*h2
		}
		vel[i] = v
	}
}

// P2P32 is the float32 Stokeslet near-field kernel over float32 SoA
// sources (positions sx/sy/sz, forces fx/fy/fz); see Gravity.P2P32 for the
// precision contract.
func (k Stokeslet) P2P32(xt []geom.Vec3, vel []geom.Vec3, sx, sy, sz, fx, fy, fz []float32) {
	e2 := float32(k.Eps * k.Eps)
	c0 := float32(1 / (8 * math.Pi * k.Mu))
	n := len(sx)
	for _, s := range [][]float32{sy, sz, fx, fy, fz} {
		if len(s) < n {
			n = len(s)
		}
	}
	sx, sy, sz = sx[:n], sy[:n], sz[:n]
	fx, fy, fz = fx[:n], fy[:n], fz[:n]
	for i := range xt {
		xi := xt[i]
		tx, ty, tz := float32(xi.X), float32(xi.Y), float32(xi.Z)
		var vx, vy, vz float32
		for j := 0; j < n; j++ {
			dx, dy, dz := tx-sx[j], ty-sy[j], tz-sz[j]
			r2 := dx*dx + dy*dy + dz*dz
			den := r2 + e2
			den15 := den * float32(math.Sqrt(float64(den)))
			if den15 == 0 {
				continue
			}
			c := c0 / den15
			h1 := (r2 + 2*e2) * c
			h2 := (dx*fx[j] + dy*fy[j] + dz*fz[j]) * c
			vx += fx[j]*h1 + dx*h2
			vy += fy[j]*h1 + dy*h2
			vz += fz[j]*h1 + dz*h2
		}
		v := vel[i]
		v.X += float64(vx)
		v.Y += float64(vy)
		v.Z += float64(vz)
		vel[i] = v
	}
}

// P2P32AoS runs the float32 Stokeslet arithmetic over float64 AoS slices,
// converting on the fly (the gather-free NearFloat32 path).
func (k Stokeslet) P2P32AoS(xt []geom.Vec3, vel []geom.Vec3, ys []geom.Vec3, fs []geom.Vec3) {
	e2 := float32(k.Eps * k.Eps)
	c0 := float32(1 / (8 * math.Pi * k.Mu))
	n := len(ys)
	if n > len(fs) {
		n = len(fs)
	}
	ys = ys[:n]
	fs = fs[:n]
	for i := range xt {
		xi := xt[i]
		tx, ty, tz := float32(xi.X), float32(xi.Y), float32(xi.Z)
		var vx, vy, vz float32
		for j := 0; j < n; j++ {
			y := ys[j]
			sfx, sfy, sfz := float32(fs[j].X), float32(fs[j].Y), float32(fs[j].Z)
			dx, dy, dz := tx-float32(y.X), ty-float32(y.Y), tz-float32(y.Z)
			r2 := dx*dx + dy*dy + dz*dz
			den := r2 + e2
			den15 := den * float32(math.Sqrt(float64(den)))
			if den15 == 0 {
				continue
			}
			c := c0 / den15
			h1 := (r2 + 2*e2) * c
			h2 := (dx*sfx + dy*sfy + dz*sfz) * c
			vx += sfx*h1 + dx*h2
			vy += sfy*h1 + dy*h2
			vz += sfz*h1 + dz*h2
		}
		v := vel[i]
		v.X += float64(vx)
		v.Y += float64(vy)
		v.Z += float64(vz)
		vel[i] = v
	}
}

// FlopsPerGravityInteraction is the approximate floating-point cost of one
// gravity P2P pair, used by the device cost models.
const FlopsPerGravityInteraction = 20

// FlopsPerStokesletInteraction is the approximate cost of one regularized
// Stokeslet pair.
const FlopsPerStokesletInteraction = 34

// Eps32 is the float32 unit roundoff (2^-24). The per-target float32
// accumulation of the P2P32 kernels bounds the relative near-field error
// by about Eps32 * n_src for the worst row, which the solvers' precision
// gate compares against the accuracy target before enabling NearFloat32.
const Eps32 = 1.0 / (1 << 24)

// NearFloat32Speedup is the assumed throughput ratio of the float32 near
// field over the float64 path, used to pre-scale the cost model's P2P
// coefficient when the precision gate toggles so the balancer's S search
// re-converges quickly (observations then refine the real rate).
const NearFloat32Speedup = 1.6
