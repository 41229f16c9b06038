//go:build amd64 && !amd64.v3

package expansion

import (
	"math"
	"math/rand"
	"testing"

	"afmm/internal/geom"
	"afmm/internal/sphharm"
)

// The complex-arithmetic solid harmonics and leaf contractions of commit
// 9214e24, verbatim: the oracle the real-arithmetic forms are held to
// (TestSolidMatchesComplexForm). The comparison holds where the complex
// forms compile without fused multiply-adds, as amd64 below v3 compiles
// them: the build constraint.

func regularComplex(deg int, v geom.Vec3, out []complex128) {
	x, y, z := v.X, v.Y, v.Z
	r2 := x*x + y*y + z*z
	xy := complex(x, y)
	out[0] = 1
	for m := 0; m <= deg; m++ {
		mm := sphharm.Idx(m, m)
		if m > 0 {
			c := math.Sqrt(float64(2*m-1) / float64(2*m))
			out[mm] = complex(c, 0) * xy * out[sphharm.Idx(m-1, m-1)]
		}
		prev2 := complex(0, 0)
		prev1 := out[mm]
		for n := m + 1; n <= deg; n++ {
			a := float64(2*n-1) / math.Sqrt(float64(n-m)*float64(n+m))
			b := math.Sqrt(float64(n+m-1) * float64(n-m-1) /
				(float64(n-m) * float64(n+m)))
			cur := complex(a*z, 0)*prev1 - complex(b*r2, 0)*prev2
			out[sphharm.Idx(n, m)] = cur
			prev2, prev1 = prev1, cur
		}
	}
}

func regularGradComplex(deg int, v geom.Vec3, val, gx, gy, gz []complex128) {
	x, y, z := v.X, v.Y, v.Z
	r2 := x*x + y*y + z*z
	xy := complex(x, y)
	val[0], gx[0], gy[0], gz[0] = 1, 0, 0, 0
	for m := 0; m <= deg; m++ {
		mm := sphharm.Idx(m, m)
		if m > 0 {
			pm := sphharm.Idx(m-1, m-1)
			c := complex(math.Sqrt(float64(2*m-1)/float64(2*m)), 0)
			val[mm] = c * xy * val[pm]
			gx[mm] = c * (val[pm] + xy*gx[pm])
			gy[mm] = c * (complex(0, 1)*val[pm] + xy*gy[pm])
			gz[mm] = c * xy * gz[pm]
		}
		var v2, x2, y2, z2 complex128
		v1, x1, y1, z1 := val[mm], gx[mm], gy[mm], gz[mm]
		for n := m + 1; n <= deg; n++ {
			a := complex(float64(2*n-1)/math.Sqrt(float64(n-m)*float64(n+m)), 0)
			b := complex(math.Sqrt(float64(n+m-1)*float64(n-m-1)/
				(float64(n-m)*float64(n+m))), 0)
			i := sphharm.Idx(n, m)
			val[i] = a*complex(z, 0)*v1 - b*complex(r2, 0)*v2
			gx[i] = a*complex(z, 0)*x1 - b*(complex(2*x, 0)*v2+complex(r2, 0)*x2)
			gy[i] = a*complex(z, 0)*y1 - b*(complex(2*y, 0)*v2+complex(r2, 0)*y2)
			gz[i] = a*(v1+complex(z, 0)*z1) - b*(complex(2*z, 0)*v2+complex(r2, 0)*z2)
			v2, x2, y2, z2 = v1, x1, y1, z1
			v1, x1, y1, z1 = val[i], gx[i], gy[i], gz[i]
		}
	}
}

func irregularComplex(deg int, v geom.Vec3, out []complex128) {
	x, y, z := v.X, v.Y, v.Z
	r2 := x*x + y*y + z*z
	inv := 1 / r2
	xy := complex(x, y)
	out[0] = complex(math.Sqrt(inv), 0)
	for m := 0; m <= deg; m++ {
		mm := sphharm.Idx(m, m)
		if m > 0 {
			c := math.Sqrt(float64(2*m-1) / float64(2*m))
			out[mm] = complex(c*inv, 0) * xy * out[sphharm.Idx(m-1, m-1)]
		}
		prev2 := complex(0, 0)
		prev1 := out[mm]
		for n := m + 1; n <= deg; n++ {
			a := float64(2*n-1) / math.Sqrt(float64(n-m)*float64(n+m))
			b := math.Sqrt(float64(n+m-1) * float64(n-m-1) /
				(float64(n-m) * float64(n+m)))
			cur := complex(inv, 0) * (complex(a*z, 0)*prev1 - complex(b, 0)*prev2)
			out[sphharm.Idx(n, m)] = cur
			prev2, prev1 = prev1, cur
		}
	}
}

// p2mComplex is P2M's accumulation of q * conj(R).
func p2mComplex(dst, reg []complex128, q float64) {
	for i, r := range reg[:len(dst)] {
		dst[i] += complex(q, 0) * complex(real(r), -imag(r))
	}
}

func evalLocalComplex(l Expansion, val, gxs, gys, gzs []complex128) (phi float64, grad geom.Vec3) {
	var p, gx, gy, gz float64
	for n := 0; n <= l.P; n++ {
		i0 := sphharm.Idx(n, 0)
		c := l.C[i0]
		p += real(c) * real(val[i0])
		p -= imag(c) * imag(val[i0])
		gx += real(c)*real(gxs[i0]) - imag(c)*imag(gxs[i0])
		gy += real(c)*real(gys[i0]) - imag(c)*imag(gys[i0])
		gz += real(c)*real(gzs[i0]) - imag(c)*imag(gzs[i0])
		for m := 1; m <= n; m++ {
			i := sphharm.Idx(n, m)
			c := l.C[i]
			p += 2 * (real(c)*real(val[i]) - imag(c)*imag(val[i]))
			gx += 2 * (real(c)*real(gxs[i]) - imag(c)*imag(gxs[i]))
			gy += 2 * (real(c)*real(gys[i]) - imag(c)*imag(gys[i]))
			gz += 2 * (real(c)*real(gzs[i]) - imag(c)*imag(gzs[i]))
		}
	}
	return p, geom.Vec3{X: gx, Y: gy, Z: gz}
}

// sameValue is the oracle's equality: == on the value, and the same bits
// unless the value is a zero (the dropped zero-imaginary products can only
// flip a zero's sign).
func sameValue(a, b float64) bool {
	return a == b && (a == 0 || math.Float64bits(a) == math.Float64bits(b))
}

// oracleOffsets draws n offsets at radii from 1e-3 to 1e3: gaussian ones,
// ones on the axes and coordinate planes (zero components of either sign),
// and exact small integers.
func oracleOffsets(rng *rand.Rand, n int) []geom.Vec3 {
	negZero := math.Copysign(0, -1)
	vs := []geom.Vec3{
		{X: 1}, {Y: -1}, {Z: 1}, {Z: -2}, {X: negZero, Y: negZero, Z: 0.5},
		{X: 0.5, Y: negZero}, {X: 3, Y: 4}, {X: -1, Y: 1, Z: -1},
	}
	for len(vs) < n {
		v := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		switch len(vs) % 4 {
		case 1:
			v.Z = 0
		case 2:
			v.X = negZero
		}
		vs = append(vs, v.Scale(math.Pow(10, 6*rng.Float64()-3)))
	}
	return vs
}

// TestSolidMatchesComplexForm: the real-arithmetic Regular, RegularGrad,
// Irregular, P2M accumulation and evalLocal equal the complex forms they
// replaced on every output (sameValue): orders 0..12 on many offsets, and
// up to 2·MaxOrder (Regular, Irregular) and MaxOrder (the rest) on a few.
func TestSolidMatchesComplexForm(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	check := func(what string, deg int, v geom.Vec3, got, want []complex128) {
		t.Helper()
		for i := range want {
			if !sameValue(real(got[i]), real(want[i])) || !sameValue(imag(got[i]), imag(want[i])) {
				t.Fatalf("%s deg=%d v=%v coefficient %d: real form %v, complex form %v", what, deg, v, i, got[i], want[i])
			}
		}
	}
	run := func(deg, gradDeg int, vs []geom.Vec3) {
		pl := sphharm.PackedLen(deg)
		a, b := make([]complex128, pl), make([]complex128, pl)
		w := NewWorkspace(gradDeg)
		gpl := sphharm.PackedLen(gradDeg)
		wv, wx, wy, wz := make([]complex128, gpl), make([]complex128, gpl), make([]complex128, gpl), make([]complex128, gpl)
		l := randomExpansion(gradDeg, rng)
		m0 := randomExpansion(gradDeg, rng)
		got, want := NewExpansion(gradDeg), NewExpansion(gradDeg)
		for _, v := range vs {
			Regular(deg, v, a)
			regularComplex(deg, v, b)
			check("Regular", deg, v, a, b)
			Irregular(deg, v, a)
			irregularComplex(deg, v, b)
			check("Irregular", deg, v, a, b)

			RegularGrad(gradDeg, v, w.val, w.gx, w.gy, w.gz)
			regularGradComplex(gradDeg, v, wv, wx, wy, wz)
			check("RegularGrad value", gradDeg, v, w.val, wv)
			check("RegularGrad x", gradDeg, v, w.gx, wx)
			check("RegularGrad y", gradDeg, v, w.gy, wy)
			check("RegularGrad z", gradDeg, v, w.gz, wz)
			phi, grad := w.evalLocal(l)
			wphi, wgrad := evalLocalComplex(l, wv, wx, wy, wz)
			if !sameValue(phi, wphi) || !sameValue(grad.X, wgrad.X) || !sameValue(grad.Y, wgrad.Y) || !sameValue(grad.Z, wgrad.Z) {
				t.Fatalf("evalLocal p=%d v=%v: real form (%v, %v), complex form (%v, %v)", gradDeg, v, phi, grad, wphi, wgrad)
			}

			q := rng.NormFloat64()
			copy(got.C, m0.C)
			copy(want.C, m0.C)
			w.P2M(got, geom.Vec3{}, v, q)
			regularComplex(gradDeg, v, wv)
			p2mComplex(want.C, wv, q)
			check("P2M", gradDeg, v, got.C, want.C)
		}
	}
	for p := 0; p <= 12; p++ {
		run(p, p, oracleOffsets(rng, 1000))
	}
	run(2*sphharm.MaxOrder, sphharm.MaxOrder, oracleOffsets(rng, 12))
}
