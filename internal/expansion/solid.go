// Package expansion implements the multipole and local expansions of the
// 3-D Laplace kernel and the six FMM operators (P2M, M2M, M2L, L2L, L2P
// plus multipole evaluation) using Greengard's translation theorems.
//
// Conventions. With Y_n^m in the sphharm normalization,
//
//	multipole: Phi(x) = sum_{n,m} M_n^m * S_n^m(x - c),  S_n^m = Y_n^m / r^{n+1}
//	local:     Phi(x) = sum_{n,m} L_n^m * R_n^m(x - c),  R_n^m = r^n Y_n^m
//
// Potentials are real, so M_n^{-m} = conj(M_n^m) and likewise for L; only
// the m >= 0 triangle is stored (packed layout sphharm.Idx).
package expansion

import (
	"math"

	"afmm/internal/geom"
	"afmm/internal/sphharm"
)

// The solid harmonics run three-term recurrences in real arithmetic, re
// and im side by side. Every product that feeds a sum or a difference is
// wrapped in float64(...), a rounding point no target may fuse across, so
// each output is the correctly rounded result of the same operations on
// every architecture and at every GOAMD64 level (THEORY §2). The products
// the complex forms formed with a zero imaginary part (complex(c, 0) * w)
// are gone; they could only change the sign of a zero result.

// recur holds the recurrence constants of the solid harmonics to degree
// 2·MaxOrder (M2L's irregular harmonics reach degree 2p), two per packed
// coefficient (n, m): at n = m the diagonal factor sqrt((2m-1)/(2m)) and
// 0; at n > m the a and b of the three-term step
//
//	a = (2n-1) / sqrt((n-m)(n+m)),
//	b = sqrt((n+m-1)(n-m-1) / ((n-m)(n+m))).
//
// It is built once and read-only afterwards.
var recur = recurRow(2 * sphharm.MaxOrder)

func recurRow(deg int) []float64 {
	ab := make([]float64, 2*sphharm.PackedLen(deg))
	for m := 0; m <= deg; m++ {
		mm := sphharm.Idx(m, m)
		if m > 0 {
			ab[2*mm] = math.Sqrt(float64(2*m-1) / float64(2*m))
		}
		for n := m + 1; n <= deg; n++ {
			i := sphharm.Idx(n, m)
			ab[2*i] = float64(2*n-1) / math.Sqrt(float64(n-m)*float64(n+m))
			ab[2*i+1] = math.Sqrt(float64(n+m-1) * float64(n-m-1) /
				(float64(n-m) * float64(n+m)))
		}
	}
	return ab
}

// radius2 is |v|^2 with the rounding of (x*x + y*y) + z*z.
func radius2(x, y, z float64) float64 {
	return float64(x*x) + float64(y*y) + float64(z*z)
}

// Regular fills out[Idx(n,m)] with the regular solid harmonics
// R_n^m(v) = r^n Y_n^m for 0 <= m <= n <= deg. out must have length
// >= PackedLen(deg).
func Regular(deg int, v geom.Vec3, out []complex128) {
	x, y, z := v.X, v.Y, v.Z
	r2 := radius2(x, y, z)
	out = out[:sphharm.PackedLen(deg)]
	ab := recur[:2*len(out)]
	out[0] = 1
	for m := 0; m <= deg; m++ {
		mm := sphharm.Idx(m, m)
		if m > 0 {
			// R_m^m = sqrt((2m-1)/(2m)) (x+iy) R_{m-1}^{m-1}
			c := ab[2*mm]
			u, w := c*x, c*y
			pr, pi := real(out[mm-m-1]), imag(out[mm-m-1])
			out[mm] = complex(float64(u*pr)-float64(w*pi), float64(u*pi)+float64(w*pr))
		}
		var r2r, r2i float64 // R_{n-2}^m
		r1r, r1i := real(out[mm]), imag(out[mm])
		for n, i := m+1, mm+m+1; n <= deg; n, i = n+1, i+n+1 {
			az, br := ab[2*i]*z, ab[2*i+1]*r2
			cr, ci := float64(az*r1r)-float64(br*r2r), float64(az*r1i)-float64(br*r2i)
			out[i] = complex(cr, ci)
			r2r, r2i, r1r, r1i = r1r, r1i, cr, ci
		}
	}
}

// RegularGrad fills val with R_n^m(v) and gx, gy, gz with the Cartesian
// partial derivatives of R_n^m at v, via differentiated recurrences. All
// output slices must have length >= PackedLen(deg). The gradients are exact
// (R_n^m are harmonic polynomials), so there are no polar singularities.
func RegularGrad(deg int, v geom.Vec3, val, gx, gy, gz []complex128) {
	x, y, z := v.X, v.Y, v.Z
	r2 := radius2(x, y, z)
	tx, ty, tz := 2*x, 2*y, 2*z
	pl := sphharm.PackedLen(deg)
	val, gx, gy, gz = val[:pl], gx[:pl], gy[:pl], gz[:pl]
	ab := recur[:2*pl]
	val[0], gx[0], gy[0], gz[0] = 1, 0, 0, 0
	for m := 0; m <= deg; m++ {
		mm := sphharm.Idx(m, m)
		if m > 0 {
			// d/dx (x+iy) R = R + (x+iy) dR/dx, d/dy (x+iy) R = iR + (x+iy) dR/dy.
			pm := mm - m - 1
			c := ab[2*mm]
			u, w := c*x, c*y
			vr, vi := real(val[pm]), imag(val[pm])
			xr, xi := real(gx[pm]), imag(gx[pm])
			yr, yi := real(gy[pm]), imag(gy[pm])
			zr, zi := real(gz[pm]), imag(gz[pm])
			val[mm] = complex(float64(u*vr)-float64(w*vi), float64(u*vi)+float64(w*vr))
			gx[mm] = complex(c*(vr+(float64(x*xr)-float64(y*xi))), c*(vi+(float64(x*xi)+float64(y*xr))))
			gy[mm] = complex(c*(float64(x*yr)-float64(y*yi)-vi), c*(vr+(float64(x*yi)+float64(y*yr))))
			gz[mm] = complex(float64(u*zr)-float64(w*zi), float64(u*zi)+float64(w*zr))
		}
		// Degree n-1 (…1) and n-2 (…2) values and gradients, re and im.
		var v2r, v2i, x2r, x2i, y2r, y2i, z2r, z2i float64
		v1r, v1i := real(val[mm]), imag(val[mm])
		x1r, x1i := real(gx[mm]), imag(gx[mm])
		y1r, y1i := real(gy[mm]), imag(gy[mm])
		z1r, z1i := real(gz[mm]), imag(gz[mm])
		for n, i := m+1, mm+m+1; n <= deg; n, i = n+1, i+n+1 {
			a, b := ab[2*i], ab[2*i+1]
			az, br := a*z, b*r2
			vr := float64(az*v1r) - float64(br*v2r)
			vi := float64(az*v1i) - float64(br*v2i)
			xr := float64(az*x1r) - float64(b*(float64(tx*v2r)+float64(r2*x2r)))
			xi := float64(az*x1i) - float64(b*(float64(tx*v2i)+float64(r2*x2i)))
			yr := float64(az*y1r) - float64(b*(float64(ty*v2r)+float64(r2*y2r)))
			yi := float64(az*y1i) - float64(b*(float64(ty*v2i)+float64(r2*y2i)))
			zr := float64(a*(v1r+float64(z*z1r))) - float64(b*(float64(tz*v2r)+float64(r2*z2r)))
			zi := float64(a*(v1i+float64(z*z1i))) - float64(b*(float64(tz*v2i)+float64(r2*z2i)))
			val[i], gx[i], gy[i], gz[i] = complex(vr, vi), complex(xr, xi), complex(yr, yi), complex(zr, zi)
			v2r, v2i, x2r, x2i, y2r, y2i, z2r, z2i = v1r, v1i, x1r, x1i, y1r, y1i, z1r, z1i
			v1r, v1i, x1r, x1i, y1r, y1i, z1r, z1i = vr, vi, xr, xi, yr, yi, zr, zi
		}
	}
}

// Irregular fills out[Idx(n,m)] with the irregular solid harmonics
// S_n^m(v) = Y_n^m / r^{n+1} for 0 <= m <= n <= deg. v must be nonzero.
func Irregular(deg int, v geom.Vec3, out []complex128) {
	x, y, z := v.X, v.Y, v.Z
	inv := 1 / radius2(x, y, z)
	out = out[:sphharm.PackedLen(deg)]
	ab := recur[:2*len(out)]
	out[0] = complex(math.Sqrt(inv), 0) // 1/r
	for m := 0; m <= deg; m++ {
		mm := sphharm.Idx(m, m)
		if m > 0 {
			ci := ab[2*mm] * inv
			u, w := ci*x, ci*y
			pr, pi := real(out[mm-m-1]), imag(out[mm-m-1])
			out[mm] = complex(float64(u*pr)-float64(w*pi), float64(u*pi)+float64(w*pr))
		}
		// The same a and b as R's, the normalization folded in:
		// S_n^m = (a z S_{n-1}^m - b S_{n-2}^m) / r^2.
		var r2r, r2i float64
		r1r, r1i := real(out[mm]), imag(out[mm])
		for n, i := m+1, mm+m+1; n <= deg; n, i = n+1, i+n+1 {
			az, b := ab[2*i]*z, ab[2*i+1]
			cr := inv * (float64(az*r1r) - float64(b*r2r))
			ci := inv * (float64(az*r1i) - float64(b*r2i))
			out[i] = complex(cr, ci)
			r2r, r2i, r1r, r1i = r1r, r1i, cr, ci
		}
	}
}

// get returns coefficient (n, m) of a packed Hermitian expansion, handling
// negative m via conjugation.
func get(e []complex128, n, m int) complex128 {
	if m >= 0 {
		return e[sphharm.Idx(n, m)]
	}
	c := e[sphharm.Idx(n, -m)]
	return complex(real(c), -imag(c))
}
