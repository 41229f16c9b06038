package expansion

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// The theta-batched M2L (M2LBatchTheta) runs four pairs that share a polar
// angle as one four-column translation, each column with its own phases
// and radial powers, and adds the columns to their targets in column
// order. The bit-identity harness holds the batched call to M2LBatch over
// each target's pairs sorted by theta (checkTheta); the fuzz target here
// holds a quad of any geometry to four width-1 translations applied in
// column order, bit for bit.

// quadSetup is the width-1 setup of four translations sharing theta: the
// half stack, and per column its phases and radial powers, rows with the
// packed body's readable slack behind them.
type quadSetup struct {
	half []float64
	zph  [4][]complex128
	rpow [4][]float64
}

func newQuadSetup(w *Workspace, theta float64, phi, rho [4]float64) quadSetup {
	p := w.p
	q := quadSetup{half: make([]float64, halfLen(p))}
	w.rot.halfStackInto(q.half, p, theta)
	for c := range q.zph {
		q.zph[c] = make([]complex128, p+1, p+1+laneSlack)
		q.rpow[c] = make([]float64, 2*p+2, 2*p+2+laneSlack)
		fillPhases(q.zph[c], phi[c])
		fillInvPowers(q.rpow[c], rho[c])
	}
	return q
}

// quadMatchesSingles runs src[c] into targets[c] through one quad and
// through four m2lApply calls in column order, from the same start, and
// returns the first coefficient where they differ ("" if none). targets
// maps each column to one of four locals, so columns may share a target.
func quadMatchesSingles(w *Workspace, q quadSetup, src [4]Expansion, start [4]Expansion, targets [4]int) string {
	p := w.p
	var got, want [4]Expansion
	for c := range got {
		got[c], want[c] = NewExpansion(p), NewExpansion(p)
		copy(got[c].C, start[c].C)
		copy(want[c].C, start[c].C)
	}
	var l [4]Expansion
	g := w.rot.wide(p)
	for c := range l {
		l[c] = got[targets[c]]
	}
	g.fill(&q.zph, &q.rpow)
	w.m2lApply4(&l, &src, q.half, g.zph, g.rpow, w.axb)
	for c := range src {
		w.m2lApply(want[targets[c]], src[c].C, q.half, q.zph[c], q.rpow[c], w.axb)
	}
	for c := range want {
		for k := range want[c].C {
			a, b := got[c].C[k], want[c].C[k]
			if !sameBits(real(a), real(b)) || !sameBits(imag(a), imag(b)) {
				return fmt.Sprintf("local %d coefficient %d: quad %v, singles %v", c, k, a, b)
			}
		}
	}
	return ""
}

// FuzzM2LQuadMatchesSingle: for any order, polar angle, per-column
// azimuths and lengths, coefficient bits and target pattern, a quad equals
// four width-1 translations in column order under both dispatch states
// (any NaN equal to any NaN).
func FuzzM2LQuadMatchesSingle(f *testing.F) {
	bits := func(vs ...float64) (b []byte) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(4), 1.0, 2.0, 3.0, uint8(0xe4), bits(1, -2, 0.5, math.Copysign(0, -1), 0, 3))
	f.Add(uint8(8), math.Pi/2, -0.3, 2.5, uint8(0), bits(math.Inf(1), 1, math.Inf(-1), 0))
	f.Add(uint8(3), 0.0, 0.0, 4.0, uint8(0x44), bits(math.NaN(), 1, 2, 5e-324, -5e-324))
	f.Add(uint8(12), math.Pi, 1.0, 1e-3, uint8(0x1b), bits(1e300, -1e300, 1e-300, 7))
	f.Add(uint8(20), 2.0, 4.0, math.Inf(1), uint8(0xaa), bits(3, 4, 5, 6, 7, 8, 9, 10, 11))
	f.Fuzz(func(t *testing.T, order uint8, theta, phi, rho float64, pattern uint8, coef []byte) {
		p := int(order) % 21
		var phis, rhos [4]float64
		for c := range phis {
			phis[c], rhos[c] = phi+0.75*float64(c), rho*(1+0.25*float64(c))
		}
		var targets [4]int
		for c := range targets {
			targets[c] = int(pattern>>(2*c)) & 3
		}
		_, _, quad := fuzzTranslation(order, theta, phi, rho, coef)
		for _, packed := range dispatchStates(t) {
			packedOK = packed
			w := NewWorkspace(p)
			q := newQuadSetup(w, theta, phis, rhos)
			var start [4]Expansion
			for c := range start {
				start[c] = NewExpansion(p)
			}
			if msg := quadMatchesSingles(w, q, quad.M, start, targets); msg != "" {
				t.Fatalf("p=%d theta=%v packed=%v targets %v: %s", p, theta, packed, targets, msg)
			}
		}
	})
}
