package expansion

import (
	"math"
	"sync"

	"afmm/internal/sphharm"
)

// Wigner small-d matrices, used by the rotation-accelerated ("point and
// shoot") translation operators: a translation along an arbitrary vector
// becomes rotate -> translate along z -> rotate back, turning the O(p^4)
// translation double sum into O(p^3) work.
//
// A stack holds d^l_{m'm}(beta) in the standard quantum-mechanics (Sakurai)
// convention for l = 0..p, each as a dense (2l+1)x(2l+1) row-major matrix
// indexed (m'+l)*(2l+1) + (m+l).
//
// Construction is O(p^3): the interior of each degree comes from the
// three-term recurrence of Blanco, Florez & Bermejo (1997); the extreme
// rows/columns (|m'| = l or |m| = l) from the closed form of d^l_{l,m} and
// the symmetries d_{m'm} = (-1)^{m'-m} d_{m m'} = d_{-m,-m'}. The explicit
// factorial sum (wignerdExplicit, in the tests) is the reference.

// wignerDegree holds the beta-independent factors of degree l's
// construction, tabulated once per degree (like sphharm.Tables): per
// interior entry (m', m), row-major, the recurrence triple
//
//	a = l(2l-1)/sqrt((l^2-m'^2)(l^2-m^2)),  q = m'm/(l(l-1)),
//	coef2 = sqrt(((l-1)^2-m'^2)((l-1)^2-m^2))/((l-1)(2l-1)),
//
// and per extreme-row column m the root sqrt((2l)!/((l+m)!(l-m)!)).
type wignerDegree struct {
	once  sync.Once
	rec   []float64 // (a, q, coef2) per interior entry
	binom []float64 // binom[m+l]
}

var wignerDegrees [sphharm.MaxOrder + 1]wignerDegree

func wignerCoef(l int) *wignerDegree {
	wd := &wignerDegrees[l]
	wd.once.Do(func() {
		fl := float64(l)
		wd.rec = make([]float64, 0, 3*(2*l-1)*(2*l-1))
		for mp := -(l - 1); mp <= l-1; mp++ {
			for m := -(l - 1); m <= l-1; m++ {
				fmp, fm := float64(mp), float64(m)
				denom := math.Sqrt((fl*fl - fmp*fmp) * (fl*fl - fm*fm))
				coef2 := math.Sqrt(((fl-1)*(fl-1)-fmp*fmp)*((fl-1)*(fl-1)-fm*fm)) /
					((fl - 1) * (2*fl - 1))
				wd.rec = append(wd.rec, fl*(2*fl-1)/denom, fmp*fm/(fl*(fl-1)), coef2)
			}
		}
		wd.binom = make([]float64, 2*l+1)
		for m := -l; m <= l; m++ {
			wd.binom[m+l] = math.Sqrt(centralBinom(l, m))
		}
	})
	return wd
}

// WignerStackInto fills pre-allocated per-degree matrices (allocation-free
// hot path for the rotated translation operators). Only the beta-dependent
// part is evaluated per call; the per-entry expressions keep the order of
// the untabulated form (the oracle in the tests), so results are
// bit-identical to it.
func WignerStackInto(stack [][]float64, p int, beta float64) {
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
	// Running powers ch^k and (-sh)^k, k = 0..2p, by repeated
	// multiplication from 1 (zeros stay exact).
	var chp, shp [2*sphharm.MaxOrder + 1]float64
	chp[0], shp[0] = 1, 1
	for k := 1; k <= 2*p; k++ {
		chp[k] = chp[k-1] * ch
		shp[k] = shp[k-1] * -sh
	}
	for l := 2; l <= p; l++ {
		wd := wignerCoef(l)
		dim := 2*l + 1
		dl, d1, d2 := stack[l], stack[l-1], stack[l-2]
		// Interior (|m'|,|m| <= l-1): three-term recurrence in l. The
		// d^{l-2} term's coefficient vanishes exactly where that entry
		// is out of range, so the formula is uniformly valid here.
		k := 0
		for mp := -(l - 1); mp <= l-1; mp++ {
			for m := -(l - 1); m <= l-1; m++ {
				var v2 float64
				if mp > -(l-1) && mp < l-1 && m > -(l-1) && m < l-1 {
					v2 = d2[(mp+l-2)*(dim-4)+(m+l-2)]
				}
				b := c - wd.rec[k+1]
				dl[(mp+l)*dim+(m+l)] = wd.rec[k] * (b*d1[(mp+l-1)*(dim-2)+(m+l-1)] - wd.rec[k+2]*v2)
				k += 3
			}
		}
		// Extreme row m' = l: d^l_{l,m} = C(l,m) ch^{l+m} (-sh)^{l-m},
		// C(l,m) = sqrt((2l)! / ((l+m)!(l-m)!)).
		for m := -l; m <= l; m++ {
			v := wd.binom[m+l] * chp[l+m] * shp[l-m]
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

// centralBinom returns (2l)! / ((l+m)!(l-m)!), computed via log-gamma for
// range safety.
func centralBinom(l, m int) float64 {
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x) + 1)
		return v
	}
	return math.Exp(lg(2*l) - lg(l+m) - lg(l-m))
}

func signPow(k int) float64 {
	if k%2 != 0 {
		return -1
	}
	return 1
}
