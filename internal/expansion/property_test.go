package expansion

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"afmm/internal/geom"
)

// The translation operators are linear maps; linearity must hold to
// rounding for arbitrary coefficient vectors (not just physical ones).

func TestQuickM2LLinearity(t *testing.T) {
	const p = 6
	w := NewWorkspace(p)
	rng := rand.New(rand.NewSource(9))
	f := func(aRaw, bRaw int16) bool {
		a := float64(aRaw) / 256
		b := float64(bRaw) / 256
		m1 := randomExpansion(p, rng)
		m2 := randomExpansion(p, rng)
		from := geom.Vec3{X: 3, Y: -1, Z: 2}
		to := geom.Vec3{}

		// a*M2L(m1) + b*M2L(m2)
		l1 := NewExpansion(p)
		l2 := NewExpansion(p)
		w.M2L(l1, to, m1, from)
		w.M2L(l2, to, m2, from)
		want := NewExpansion(p)
		for i := range want.C {
			want.C[i] = complex(a, 0)*l1.C[i] + complex(b, 0)*l2.C[i]
		}

		// M2L(a*m1 + b*m2)
		comb := NewExpansion(p)
		for i := range comb.C {
			comb.C[i] = complex(a, 0)*m1.C[i] + complex(b, 0)*m2.C[i]
		}
		got := NewExpansion(p)
		w.M2L(got, to, comb, from)

		scale := norm1(want.C) + 1
		return maxDiff(got.C, want.C) <= 1e-11*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRotatedOperatorsLinear(t *testing.T) {
	const p = 6
	w := NewWorkspace(p)
	rng := rand.New(rand.NewSource(10))
	f := func(aRaw int16) bool {
		a := float64(aRaw) / 256
		m := randomExpansion(p, rng)
		from := geom.Vec3{X: 1, Y: 2, Z: -3}
		to := geom.Vec3{X: 0.1}

		l1 := NewExpansion(p)
		w.M2LRotated(l1, to, m, from)
		for i := range l1.C {
			l1.C[i] *= complex(a, 0)
		}
		scaled := NewExpansion(p)
		for i := range scaled.C {
			scaled.C[i] = complex(a, 0) * m.C[i]
		}
		l2 := NewExpansion(p)
		w.M2LRotated(l2, to, scaled, from)
		return maxDiff(l1.C, l2.C) <= 1e-11*(norm1(l1.C)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Hermitian preservation: operators applied to Hermitian inputs keep m = 0
// coefficients real (the invariant the packed storage relies on).
func TestOperatorsPreserveHermitianSymmetry(t *testing.T) {
	const p = 8
	w := NewWorkspace(p)
	rng := rand.New(rand.NewSource(11))
	m := randomMultipole(rng, p, geom.Vec3{X: 4}, 0.5)
	l := NewExpansion(p)
	w.M2L(l, geom.Vec3{}, m, geom.Vec3{X: 4})
	l2 := NewExpansion(p)
	w.L2L(l2, geom.Vec3{X: 0.2, Y: 0.1}, l, geom.Vec3{})
	m2 := NewExpansion(p)
	w.M2M(m2, geom.Vec3{X: 3.8}, m, geom.Vec3{X: 4})
	for _, e := range []Expansion{l, l2, m2} {
		for n := 0; n <= p; n++ {
			idx := n * (n + 1) / 2
			if math.Abs(imag(e.C[idx])) > 1e-12*(1+math.Abs(real(e.C[idx]))) {
				t.Fatalf("m=0 coefficient of degree %d not real: %v", n, e.C[idx])
			}
		}
	}
}
