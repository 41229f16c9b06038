package expansion

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"afmm/internal/geom"
	"afmm/internal/sphharm"
)

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		d := a[i] - b[i]
		if v := math.Hypot(real(d), imag(d)); v > m {
			m = v
		}
	}
	return m
}

func norm1(a []complex128) float64 {
	var m float64
	for _, c := range a {
		m += math.Hypot(real(c), imag(c))
	}
	return m + 1e-300
}

// rotateZ, rotateY and M2LRotated are the per-call complex-arithmetic
// rotated M2L the kernel grew out of, kept as a reference for the
// rotation conventions and for the batch forms.

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

// M2LRotated accumulates into l the local expansion at `to` of the
// multipole o centered at `from`: rotate so the offset lies along +z,
// translate axially, rotate back, in complex arithmetic.
func (w *Workspace) M2LRotated(l Expansion, to geom.Vec3, o Expansion, from geom.Vec3) {
	p := l.P
	r := w.rot
	buf1, buf2 := make([]complex128, len(o.C)), make([]complex128, len(o.C))
	rho, theta, phi := from.Sub(to).Spherical()
	WignerStackInto(r.stack, p, theta)

	// Forward frame change Q = Ry(-theta) Rz(-phi): phase e^{im phi},
	// then the transposed Wigner stack (d(-theta) = d(theta)^T).
	copy(buf1, o.C)
	rotateZ(p, buf1, phi)
	rotateY(p, buf2, buf1, r.stack, true)

	// Axial M2L along +z at distance rho:
	//   L_j^k = sum_n O_n^k (-1)^{|k|+j} A_n^k A_j^k (j+n)! / rho^{j+n+1}
	t := w.t
	fillInvPowers(r.rpow, rho)
	for j := 0; j <= p; j++ {
		for k := 0; k <= j; k++ {
			sk := 1.0
			if (j+k)%2 == 1 {
				sk = -1
			}
			var acc complex128
			for n := k; n <= p; n++ {
				c := sk * t.Anm(n, k) * t.Anm(j, k) * t.Fact[j+n] * r.rpow[j+n]
				acc += complex(c, 0) * buf2[sphharm.Idx(n, k)]
			}
			buf1[sphharm.Idx(j, k)] = acc
		}
	}

	// Back rotation Q^{-1} = Rz(phi) Ry(theta): Wigner stack untransposed,
	// then phase e^{-im phi}; accumulate into l.
	rotateY(p, buf2, buf1, r.stack, false)
	rotateZ(p, buf2, -phi)
	for i := range l.C {
		l.C[i] += buf2[i]
	}
}

// randomMultipole builds a multipole from random charges in a ball.
func randomMultipole(rng *rand.Rand, p int, center geom.Vec3, radius float64) Expansion {
	w := NewWorkspace(p)
	m := NewExpansion(p)
	for i := 0; i < 20; i++ {
		pos := center.Add(randDir(rng).Scale(radius * rng.Float64()))
		w.P2M(m, center, pos, rng.Float64()+0.5)
	}
	return m
}

// TestRotateZMatchesPhysicalRotation pins the z-rotation convention:
// physically rotating the charges by +gamma about the center's z-axis
// multiplies M_n^m by e^{-i m gamma}.
func TestRotateZMatchesPhysicalRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const p = 8
	w := NewWorkspace(p)
	center := geom.Vec3{X: 0.3, Y: -0.2, Z: 0.1}
	gamma := 0.77
	cg, sg := math.Cos(gamma), math.Sin(gamma)
	orig := NewExpansion(p)
	rot := NewExpansion(p)
	for i := 0; i < 15; i++ {
		d := randDir(rng).Scale(0.5 * rng.Float64())
		q := rng.Float64() + 0.5
		w.P2M(orig, center, center.Add(d), q)
		dr := geom.Vec3{X: cg*d.X - sg*d.Y, Y: sg*d.X + cg*d.Y, Z: d.Z}
		w.P2M(rot, center, center.Add(dr), q)
	}
	got := NewExpansion(p)
	copy(got.C, orig.C)
	rotateZ(p, got.C, -gamma)
	if d := maxDiff(got.C, rot.C); d > 1e-12*norm1(rot.C) {
		t.Fatalf("rotateZ convention wrong: diff %g", d)
	}
}

// TestRotateYMatchesPhysicalRotation pins the y-rotation (Wigner)
// convention: physically rotating the charges by Ry(beta) must equal
// applying the coefficient rotation for the active rotation Ry(beta),
// which in this implementation is rotateY with the untransposed stack at
// angle beta... the test asserts the exact mapping used by the pipeline:
// coefficients in the frame y = Ry(-beta) x are rotateY(transpose=true).
func TestRotateYMatchesPhysicalRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const p = 8
	w := NewWorkspace(p)
	center := geom.Vec3{}
	beta := 0.62
	cb, sb := math.Cos(beta), math.Sin(beta)
	orig := NewExpansion(p)
	rot := NewExpansion(p)
	for i := 0; i < 15; i++ {
		d := randDir(rng).Scale(0.5 * rng.Float64())
		q := rng.Float64() + 0.5
		w.P2M(orig, center, d, q)
		// Physically rotate the charge by Ry(beta).
		dr := geom.Vec3{X: cb*d.X + sb*d.Z, Y: d.Y, Z: -sb*d.X + cb*d.Z}
		w.P2M(rot, center, dr, q)
	}
	// Coefficients of the physically rotated distribution: the function is
	// f(Ry(beta)^{-1} x), i.e. the active rotation by Q = Ry(beta); the
	// pipeline's frame-change for "align d with z" uses the inverse, so
	// here the untransposed stack applies.
	stack := WignerStack(p, beta)
	got := make([]complex128, sphharm.PackedLen(p))
	rotateY(p, got, orig.C, stack, false)
	if d := maxDiff(got, rot.C); d > 1e-11*norm1(rot.C) {
		t.Fatalf("rotateY convention wrong: diff %g (rel %g)", d, d/norm1(rot.C))
	}
}

func TestM2LRotatedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, p := range []int{2, 4, 8, 12} {
		w := NewWorkspace(p)
		for trial := 0; trial < 10; trial++ {
			from := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
			to := from.Add(randDir(rng).Scale(3 + rng.Float64()))
			m := randomMultipole(rng, p, from, 0.5)
			lGen := NewExpansion(p)
			lRot := NewExpansion(p)
			w.M2L(lGen, to, m, from)
			w.M2LRotated(lRot, to, m, from)
			if d := maxDiff(lGen.C, lRot.C); d > 1e-10*norm1(lGen.C) {
				t.Fatalf("p=%d trial %d: rotated M2L differs by %g (rel %g)",
					p, trial, d, d/norm1(lGen.C))
			}
		}
	}
}

func TestM2LRotatedAxisAligned(t *testing.T) {
	// Degenerate geometry: translation exactly along +z and -z.
	rng := rand.New(rand.NewSource(4))
	const p = 8
	w := NewWorkspace(p)
	for _, dz := range []float64{4, -4} {
		from := geom.Vec3{X: 1, Y: 1, Z: 1}
		to := from.Add(geom.Vec3{Z: dz})
		m := randomMultipole(rng, p, from, 0.5)
		lGen := NewExpansion(p)
		lRot := NewExpansion(p)
		w.M2L(lGen, to, m, from)
		w.M2LRotated(lRot, to, m, from)
		if d := maxDiff(lGen.C, lRot.C); d > 1e-11*norm1(lGen.C) {
			t.Fatalf("dz=%v: rotated M2L differs by %g", dz, d)
		}
	}
}

// TestM2MRotatedMatchesGeneric: the general-offset M2M (the translation
// kernel over a per-call setup) against the direct O(p^4) oracle, at
// random offsets and at offset zero.
func TestM2MRotatedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range []int{0, 2, 4, 8, 12} {
		w := NewWorkspace(p)
		for trial := 0; trial < 11; trial++ {
			from := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
			to := from.Add(randDir(rng).Scale(0.5 + rng.Float64()))
			if trial == 10 {
				to = from
			}
			m := randomMultipole(rng, p, from, 0.3)
			gGen := NewExpansion(p)
			gRot := NewExpansion(p)
			w.m2mOracle(gGen, to, m, from)
			w.M2M(gRot, to, m, from)
			if d := maxDiff(gGen.C, gRot.C); d > 1e-13*norm1(gGen.C) {
				t.Fatalf("p=%d trial %d: rotated M2M differs by %g (rel %g)",
					p, trial, d, d/norm1(gGen.C))
			}
		}
	}
}

// TestL2LRotatedMatchesGeneric: the general-offset L2L against the
// oracle, as for M2M.
func TestL2LRotatedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, p := range []int{0, 2, 4, 8, 12} {
		w := NewWorkspace(p)
		for trial := 0; trial < 11; trial++ {
			src := geom.Vec3{X: 5}
			m := randomMultipole(rng, p, src, 0.5)
			parent := geom.Vec3{}
			l := NewExpansion(p)
			w.M2L(l, parent, m, src)
			child := parent.Add(randDir(rng).Scale(0.3 * (rng.Float64() + 0.2)))
			if trial == 10 {
				child = parent
			}
			gGen := NewExpansion(p)
			gRot := NewExpansion(p)
			w.l2lOracle(gGen, child, l, parent)
			w.L2L(gRot, child, l, parent)
			if d := maxDiff(gGen.C, gRot.C); d > 1e-13*norm1(gGen.C) {
				t.Fatalf("p=%d trial %d: rotated L2L differs by %g (rel %g)",
					p, trial, d, d/norm1(gGen.C))
			}
		}
	}
}

// BenchmarkM2LGeneric and BenchmarkM2LRotated quantify the O(p^4) -> O(p^3)
// crossover of the rotation-accelerated translation.
func BenchmarkM2LGeneric(b *testing.B) {
	for _, p := range []int{4, 8, 12, 16} {
		b.Run(orderName(p), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			w := NewWorkspace(p)
			from := geom.Vec3{X: 4}
			m := randomMultipole(rng, p, from, 0.5)
			l := NewExpansion(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.M2L(l, geom.Vec3{}, m, from)
			}
		})
	}
}

func BenchmarkM2LRotated(b *testing.B) {
	for _, p := range []int{4, 8, 12, 16} {
		b.Run(orderName(p), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			w := NewWorkspace(p)
			from := geom.Vec3{X: 3, Y: 2, Z: 1}
			m := randomMultipole(rng, p, from, 0.5)
			l := NewExpansion(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.M2LRotated(l, geom.Vec3{}, m, from)
			}
		})
	}
}

func orderName(p int) string {
	return "p" + string(rune('0'+p/10)) + string(rune('0'+p%10))
}
