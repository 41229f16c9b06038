package expansion

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"afmm/internal/geom"
	"afmm/internal/sphharm"
)

// The theta-batched M2L (M2LBatchTheta) runs four pairs that share a polar
// angle as one four-column translation, each column with its own phases
// and radial powers, and adds the columns to their targets in column
// order. These tests hold a quad to four width-1 translations applied in
// column order, bit for bit, and the batched call to the per-target table
// form over the target's pairs sorted by theta.

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

// TestM2LQuadMatchesSingle: a four-column translation with per-column
// phases and radial powers over one half stack equals four width-1
// translations applied in column order — into four distinct locals, and
// into one local repeated in all four columns (and in two pairs of
// columns) — at every order the benchmark and the fuzz targets run, under
// both dispatch states.
func TestM2LQuadMatchesSingle(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		orders := []int{0, 1, 2, 3, 4, 5, 6, 8, 12, 20}
		for _, p := range orders {
			rng := rand.New(rand.NewSource(int64(150 + p)))
			w := NewWorkspace(p)
			for trial := 0; trial < 6; trial++ {
				theta := math.Pi * rng.Float64()
				if trial == 0 {
					theta = 0 // axial: the stack is the identity's signs
				}
				var phi, rho [4]float64
				for c := range phi {
					phi[c], rho[c] = 2*math.Pi*rng.Float64()-math.Pi, 1+3*rng.Float64()
				}
				q := newQuadSetup(w, theta, phi, rho)
				var src [4]Expansion
				for c := range src {
					src[c] = randomExpansion(p, rng)
				}
				start, _ := randomLocals(p, rng)
				for _, targets := range [][4]int{{0, 1, 2, 3}, {2, 2, 2, 2}, {0, 3, 0, 3}, {3, 2, 1, 0}} {
					if msg := quadMatchesSingles(w, q, src, start, targets); msg != "" {
						t.Fatalf("p=%d trial %d targets %v: %s", p, trial, targets, msg)
					}
				}
			}
		}
	})
}

// TestM2LBatchThetaMatchesSortedTable: M2LBatchTheta over pairs of many
// targets — classes four to a theta and singletons, so buckets hold full
// quads, remainders of one to three and lone pairs, some theta spilled out
// of a squeezed table — leaves every target bit-identical to M2LBatchTable
// over that target's own pairs sorted stably by theta, under both dispatch
// states, whatever the order the targets' pairs are interleaved in.
func TestM2LBatchThetaMatchesSortedTable(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		for _, p := range []int{3, 8} {
			rng := rand.New(rand.NewSource(int64(170 + p)))
			dirs := append(thetaQuads(benchDirs(rng, 12)), benchDirs(rng, 10)...)
			const nCells = 24
			pl := sphharm.PackedLen(p)
			mslab := make([]complex128, 0, nCells*pl)
			for i := 0; i < nCells; i++ {
				mslab = append(mslab, randomExpansion(p, rng).C...)
			}
			start := make([]complex128, 0, nCells*pl)
			for i := 0; i < nCells; i++ {
				start = append(start, randomExpansion(p, rng).C...)
			}
			for _, rotCap := range []int{0, 9} {
				tb := buildTable(p, dirs, nil, rotCap)
				for trial := 0; trial < 4; trial++ {
					var pairs []M2LPair
					for i := 0; i < 200; i++ {
						pairs = append(pairs, M2LPair{L: int32(rng.Intn(6)), M: int32(rng.Intn(nCells)), Class: int32(rng.Intn(len(dirs)))})
					}
					w := NewWorkspace(p)
					got := slices.Clone(start)
					w.M2LBatchTheta(got, mslab, pairs, tb)
					want := slices.Clone(start)
					for target := int32(0); target < 6; target++ {
						var own []M2LPair
						for _, pr := range pairs {
							if pr.L == target {
								own = append(own, pr)
							}
						}
						slices.SortStableFunc(own, func(a, b M2LPair) int {
							_, thetaA, _ := dirs[a.Class].Spherical()
							_, thetaB, _ := dirs[b.Class].Spherical()
							return cmp.Compare(thetaA, thetaB)
						})
						srcs := make([]M2LSource, len(own))
						classes := make([]int32, len(own))
						for i, pr := range own {
							srcs[i] = M2LSource{M: Expansion{P: p, C: mslab[int(pr.M)*pl:][:pl]}}
							classes[i] = pr.Class
						}
						w.M2LBatchTable(Expansion{P: p, C: want[int(target)*pl:][:pl]}, geom.Vec3{}, srcs, classes, tb)
					}
					for k := range want {
						if !sameBits(real(got[k]), real(want[k])) || !sameBits(imag(got[k]), imag(want[k])) {
							t.Fatalf("p=%d rotCap=%d trial %d: target %d coefficient %d: batched %v, sorted table %v",
								p, rotCap, trial, k/pl, k%pl, got[k], want[k])
						}
					}
				}
			}
		}
	})
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
		_, quad := fuzzTranslation(order, theta, phi, rho, coef)
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
