package expansion

import (
	"math"
	"math/rand"
	"testing"
)

// wignerdExplicit evaluates d^j_{m'm}(beta) by Wigner's explicit factorial
// sum (Sakurai convention) — the slow reference the fast recurrence must
// match.
func wignerdExplicit(j, mp, m int, beta float64) float64 {
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x) + 1)
		return v
	}
	ch := math.Cos(beta / 2)
	sh := math.Sin(beta / 2)
	lo := 0
	if m-mp > lo {
		lo = m - mp
	}
	hi := j + m
	if j-mp < hi {
		hi = j - mp
	}
	var sum float64
	for s := lo; s <= hi; s++ {
		logc := 0.5*(lg(j+m)+lg(j-m)+lg(j+mp)+lg(j-mp)) -
			lg(j+m-s) - lg(s) - lg(mp-m+s) - lg(j-mp-s)
		term := math.Exp(logc) *
			math.Pow(ch, float64(2*j+m-mp-2*s)) *
			math.Pow(sh, float64(mp-m+2*s))
		if (mp-m+s)%2 != 0 && (mp-m+s)%2 != -0 {
		}
		if ((mp-m+s)%2+2)%2 == 1 {
			term = -term
		}
		sum += term
	}
	return sum
}

func TestWignerStackMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		beta := rng.Float64()*math.Pi*0.98 + 0.01
		const p = 14
		stack := WignerStack(p, beta)
		for l := 0; l <= p; l++ {
			dim := 2*l + 1
			for mp := -l; mp <= l; mp++ {
				for m := -l; m <= l; m++ {
					got := stack[l][(mp+l)*dim+(m+l)]
					want := wignerdExplicit(l, mp, m, beta)
					if math.Abs(got-want) > 1e-10 {
						t.Fatalf("d^%d_{%d,%d}(%v) = %v, want %v",
							l, mp, m, beta, got, want)
					}
				}
			}
		}
	}
}

func TestWignerOrthogonality(t *testing.T) {
	// Each d^l is orthogonal: d^l (d^l)^T = I.
	const p = 12
	stack := WignerStack(p, 0.7)
	for l := 0; l <= p; l++ {
		dim := 2*l + 1
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				var dot float64
				for k := 0; k < dim; k++ {
					dot += stack[l][i*dim+k] * stack[l][j*dim+k]
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(dot-want) > 1e-11 {
					t.Fatalf("l=%d: row %d . row %d = %v", l, i, j, dot)
				}
			}
		}
	}
}

func TestWignerIdentityAtZero(t *testing.T) {
	stack := WignerStack(10, 0)
	for l := 0; l <= 10; l++ {
		dim := 2*l + 1
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(stack[l][i*dim+j]-want) > 1e-13 {
					t.Fatalf("d^%d(0) not identity at (%d,%d)", l, i, j)
				}
			}
		}
	}
}

// wignerStackOracle is WignerStackInto before the beta-independent
// recurrence factors were tabulated: every coefficient recomputed per
// entry per call. The tabulated form must reproduce it bit-for-bit.
func wignerStackOracle(stack [][]float64, p int, beta float64) {
	c := math.Cos(beta)
	ch := math.Cos(beta / 2)
	sh := math.Sin(beta / 2)
	s := math.Sin(beta)
	stack[0][0] = 1
	if p == 0 {
		return
	}
	copy(stack[1], []float64{
		ch * ch, s / math.Sqrt2, sh * sh,
		-s / math.Sqrt2, c, s / math.Sqrt2,
		sh * sh, -s / math.Sqrt2, ch * ch,
	})
	get := func(l, mp, m int) float64 {
		if mp < -l || mp > l || m < -l || m > l {
			return 0
		}
		return stack[l][(mp+l)*(2*l+1)+(m+l)]
	}
	for l := 2; l <= p; l++ {
		dim := 2*l + 1
		dl := stack[l]
		fl := float64(l)
		// Interior (|m'|,|m| <= l-1): three-term recurrence in l. The
		// d^{l-2} term's coefficient vanishes exactly where that entry
		// is out of range, so the formula is uniformly valid here.
		for mp := -(l - 1); mp <= l-1; mp++ {
			for m := -(l - 1); m <= l-1; m++ {
				fmp, fm := float64(mp), float64(m)
				denom := math.Sqrt((fl*fl - fmp*fmp) * (fl*fl - fm*fm))
				a := fl * (2*fl - 1) / denom
				b := c - fmp*fm/(fl*(fl-1))
				coef2 := math.Sqrt(((fl-1)*(fl-1)-fmp*fmp)*((fl-1)*(fl-1)-fm*fm)) /
					((fl - 1) * (2*fl - 1))
				dl[(mp+l)*dim+(m+l)] = a * (b*get(l-1, mp, m) - coef2*get(l-2, mp, m))
			}
		}
		// Extreme row m' = l: d^l_{l,m} = C(l,m) ch^{l+m} (-sh)^{l-m},
		// C(l,m) = sqrt((2l)! / ((l+m)!(l-m)!)).
		for m := -l; m <= l; m++ {
			v := math.Sqrt(centralBinom(l, m)) *
				intPow(ch, l+m) * intPow(-sh, l-m)
			dl[(l+l)*dim+(m+l)] = v
			// Column m = l: d_{m',l} = (-1)^{m'-l} d_{l,m'}.
			dl[(m+l)*dim+(l+l)] = signPow(m-l) * v
			// Row m' = -l: d_{-l,m} = (-1)^{l+m} d_{l,-m}.
			dl[(0)*dim+(-m+l)] = signPow(l+m) * v // here v = d_{l,m}; -m column
			// Column m = -l: d_{m',-l} = d_{l,-m'}.
			dl[(-m+l)*dim+(0)] = v // d_{-m', -l} with m' = -m  => d_{l, m}
		}
	}
}

// intPow returns x^k for small non-negative integer k, preserving exact
// zeros (math.Pow(0, 0) conventions are avoided).
func intPow(x float64, k int) float64 {
	v := 1.0
	for i := 0; i < k; i++ {
		v *= x
	}
	return v
}

// TestWignerStackMatchesOracleExactly: hoisting the recurrence factors is
// a pure evaluation-cost change — every entry must equal (==) the
// untabulated form, at random and at degenerate angles.
func TestWignerStackMatchesOracleExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	orders := []int{40}
	for p := 0; p <= 12; p++ {
		orders = append(orders, p)
	}
	for _, p := range orders {
		betas := []float64{0, math.Pi, math.Pi / 2, math.Copysign(0, -1)}
		for i := 0; i < 20; i++ {
			betas = append(betas, rng.Float64()*math.Pi)
		}
		want := WignerStack(p, 0)
		for _, beta := range betas {
			got := WignerStack(p, beta)
			wignerStackOracle(want, p, beta)
			for l := range got {
				for i := range got[l] {
					if got[l][i] != want[l][i] || math.Signbit(got[l][i]) != math.Signbit(want[l][i]) {
						t.Fatalf("p=%d beta=%v: d^%d[%d] = %v, oracle %v", p, beta, l, i, got[l][i], want[l][i])
					}
				}
			}
		}
	}
}

// WignerStack computes d^l(beta) for l = 0..p, allocating the stack.
func WignerStack(p int, beta float64) [][]float64 {
	stack := make([][]float64, p+1)
	for l := 0; l <= p; l++ {
		stack[l] = make([]float64, (2*l+1)*(2*l+1))
	}
	WignerStackInto(stack, p, beta)
	return stack
}
