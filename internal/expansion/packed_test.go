package expansion

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"afmm/internal/geom"
	"afmm/internal/sphharm"
)

// The packed M2L bodies (m2l_amd64.s) run every stage of a translation
// with one output per vector lane. These tests hold them to the scalar
// stages bit for bit — math.Float64bits of every coefficient — and run the
// kernel's older gates in both dispatch states.

// dispatchStates returns the dispatch states this host runs — packed first
// where it has the body, then the scalar stages — for a test to set packedOK
// to in turn; the host's own state is restored when the test ends.
func dispatchStates(t testing.TB) []bool {
	host := packedOK
	t.Cleanup(func() { packedOK = host })
	if host {
		return []bool{true, false}
	}
	return []bool{false}
}

// eachDispatch runs f with the packed body enabled (skipped on hosts
// without it) and with the scalar stages forced.
func eachDispatch(t *testing.T, f func(t *testing.T)) {
	states := dispatchStates(t)
	for _, st := range []struct {
		name   string
		packed bool
	}{{"packed", true}, {"fallback", false}} {
		t.Run(st.name, func(t *testing.T) {
			if st.packed && !states[0] {
				t.Skip("no AVX2 on this host")
			}
			packedOK = st.packed
			f(t)
		})
	}
}

// packedOrders are the orders the packed-vs-scalar and child-shift gates
// run at: every order the benchmark, the accuracy matrix and the fuzz
// targets use, 20 and MaxOrder.
var packedOrders = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 20, sphharm.MaxOrder}

// sameBits is bit equality, with any NaN equal to any NaN: IEEE 754 leaves
// the payload a NaN operation propagates to the implementation, so operand
// order may show there and nowhere else.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// canaried lays n vectors of size floats out in one buffer with a canary
// after each and returns them with a check that no canary moved.
func canaried[T comparable](n, size int, canary T) (vecs [][]T, intact func() bool) {
	buf := make([]T, n*(size+1))
	for i := range buf {
		buf[i] = canary
	}
	for i := 0; i < n; i++ {
		vecs = append(vecs, buf[i*(size+1):i*(size+1)+size:i*(size+1)+size])
	}
	return vecs, func() bool {
		for i := 1; i <= n; i++ {
			if buf[i*(size+1)-1] != canary {
				return false
			}
		}
		return true
	}
}

// TestM2LScratchSlackHoldsOverrun: a last lane group writes past the
// outputs it owns, into the laneSlack entries behind each split scratch
// vector and behind the merge's zip vector and never beyond them; the
// width-4 scratch, whose lanes are columns, is not overrun at all. And it
// reads past a row of phases or radial powers — here the last rows of the
// table's slabs, of the octant setup's phases and ones, and the
// workspace's own, their slack filled with NaN — without the values
// reaching a result. Every order up to MaxOrder, both states.
func TestM2LScratchSlackHoldsOverrun(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		for p := 0; p <= sphharm.MaxOrder; p++ {
			rng := rand.New(rand.NewSource(int64(110 + p)))
			pl := sphharm.PackedLen(p)
			w := NewWorkspace(p)
			r := w.rot
			const mark = -7.5
			v1, ok1 := canaried(4, pl+laneSlack, mark)
			vz, okz := canaried(1, pl+laneSlack, complex(mark, mark))
			v4, ok4 := canaried(4, pl, [4]float64{mark, mark, mark, mark})
			r.aRe, r.aIm, r.bRe, r.bIm, r.zip = v1[0], v1[1], v1[2], v1[3], vz[0]
			r.wide(p) // the column geometry; the split scratch it made is replaced
			r.aRe4, r.aIm4, r.bRe4, r.bIm4 = v4[0], v4[1], v4[2], v4[3]
			froms := benchDirs(rng, 3)
			quads, cols := randomQuads(p, rng, froms)
			tb, classes := tableFor(p, geom.Vec3{}, froms, nil, 0)
			nan := math.NaN()
			oct := octants(p)
			for i := 0; i < laneSlack; i++ {
				r.zph[:cap(r.zph)][len(r.zph)+i], tb.zph[:cap(tb.zph)][len(tb.zph)+i] = complex(nan, nan), complex(nan, nan)
				r.rpow[:cap(r.rpow)][len(r.rpow)+i], tb.rpow[:cap(tb.rpow)][len(tb.rpow)+i] = nan, nan
				oct.zph[:cap(oct.zph)][len(oct.zph)+i], oct.ones[2*p+2+i] = complex(nan, nan), nan
			}
			t.Cleanup(func() { // the setup is process-wide
				for i := 0; i < laneSlack; i++ {
					oct.zph[:cap(oct.zph)][len(oct.zph)+i], oct.ones[2*p+2+i] = 0, 1
				}
			})
			if last := tb.ops[classes[2]]; int(last.phi+1)*(p+1) != len(tb.zph) || int(last.rho+1)*(2*p+2) != len(tb.rpow) {
				t.Fatalf("p=%d: the last class does not read the last rows of the slabs", p)
			}
			l, _ := randomLocals(p, rng)
			var rows ShiftRows
			rows.Cover(p, 0.25, 1)
			w.M2LBatch(l[0], geom.Vec3{}, cols[0])
			w.M2LBatchTable(l[0], geom.Vec3{}, cols[0], classes, tb)
			w.M2LBatchTable4(&l, quads, classes, tb)
			for o := 0; o < 8; o++ {
				w.ChildShift(l[0], quads[0].M[0], ShiftM2M, o, 0.25, &rows)
				w.ChildShift(l[1], quads[0].M[1], ShiftL2L, o, 0.25, &rows)
				w.ChildShift4(&l, &quads[0].M, ShiftM2M, o, 0.25, &rows)
				w.ChildShift4(&l, &quads[0].M, ShiftL2L, o, 0.25, &rows)
			}
			if !ok1() || !okz() || !ok4() {
				t.Fatalf("p=%d: a canary behind the scratch was overwritten (width 1 intact: %v, zip: %v, width 4: %v)", p, ok1(), okz(), ok4())
			}
			for c := range l {
				for k, v := range l[c].C {
					if v != v {
						t.Fatalf("p=%d column %d coefficient %d: %v from finite inputs: a slack read reached the result", p, c, k, v)
					}
				}
			}
		}
	})
}

// fuzzTranslation is one translation of FuzzM2LPackedMatchesScalar: order,
// direction, and four source columns made of raw coefficient bits.
func fuzzTranslation(order uint8, theta, phi, rho float64, coef []byte) (p int, from geom.Vec3, quad M2LSource4) {
	p = int(order) % 21
	st, ct := math.Sincos(theta)
	sp, cp := math.Sincos(phi)
	from = geom.Vec3{X: rho * st * cp, Y: rho * st * sp, Z: rho * ct}
	var word [8]byte
	next := func() float64 {
		n := copy(word[:], coef)
		coef = coef[n:]
		clear(word[n:])
		return math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
	}
	for c := range quad.M {
		quad.M[c] = NewExpansion(p)
		for i := range quad.M[c].C {
			quad.M[c].C[i] = complex(next(), next())
		}
	}
	return p, from, quad
}

// FuzzM2LPackedMatchesScalar: for any order, direction and coefficient bits
// — signed zeros, infinities, NaN, subnormals — one translation through the
// table and through M2LBatch, the general-offset M2M and L2L over the same
// offset, and both ChildShift kinds over octant order/21 % 8 at half-width
// rho leave the same bits under both dispatch states, at both widths (any
// NaN equal to any NaN).
func FuzzM2LPackedMatchesScalar(f *testing.F) {
	bits := func(vs ...float64) (b []byte) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add(uint8(4), 1.0, 2.0, 3.0, bits(1, -2, 0.5, negZero, 0, 3))
	f.Add(uint8(8), math.Pi/2, -0.3, 2.5, bits(negZero, negZero, math.Inf(1), 1, math.Inf(-1), 0))
	f.Add(uint8(3), 0.0, 0.0, 4.0, bits(math.NaN(), 1, 2, math.NaN(), 5e-324, -5e-324, 2.2e-308))
	f.Add(uint8(12), math.Pi, 1.0, 1e-3, bits(1e300, -1e300, 1e-300, 7))
	f.Add(uint8(0), 0.7, 0.1, 0.0, bits(1))
	f.Add(uint8(20), 2.0, 4.0, math.Inf(1), bits(3, 4, 5, 6, 7, 8, 9, 10, 11))
	f.Add(uint8(8+21*3), 1.0, 2.0, 0.0, bits(1, -2, 0.5, negZero, 3))
	f.Add(uint8(12+21*7), 0.5, -2.0, 0.3712, bits(2, math.Inf(-1), 1e-300, 4))
	f.Fuzz(func(t *testing.T, order uint8, theta, phi, rho float64, coef []byte) {
		if !packedOK {
			t.Skip("no AVX2 on this host")
		}
		defer func() { packedOK = true }()
		p, from, quad := fuzzTranslation(order, theta, phi, rho, coef)
		run := func() (out []complex128) {
			w := NewWorkspace(p)
			srcs := []M2LSource{{M: quad.M[0], From: from}}
			tb, classes := tableFor(p, geom.Vec3{}, []geom.Vec3{from}, nil, 0)
			var l [4]Expansion
			for c := range l {
				l[c] = NewExpansion(p)
			}
			w.M2LBatchTable4(&l, []M2LSource4{quad}, classes, tb)
			for c := range l {
				out = append(out, l[c].C...)
			}
			single, batch := NewExpansion(p), NewExpansion(p)
			w.M2LBatchTable(single, geom.Vec3{}, srcs, classes, tb)
			w.M2LBatch(batch, geom.Vec3{}, srcs)
			out = append(append(out, single.C...), batch.C...)
			o := int(order/21) % 8
			var rows ShiftRows
			rows.Cover(p, rho, 1)
			shifts := [4]Expansion{NewExpansion(p), NewExpansion(p), NewExpansion(p), NewExpansion(p)}
			w.M2M(shifts[0], geom.Vec3{}, quad.M[0], from)
			w.L2L(shifts[1], geom.Vec3{}, quad.M[1], from)
			w.ChildShift(shifts[2], quad.M[2], ShiftM2M, o, rho, &rows)
			w.ChildShift(shifts[3], quad.M[3], ShiftL2L, o, rho, &rows)
			w.ChildShift4(&shifts, &quad.M, ShiftM2M, o, rho, &rows)
			w.ChildShift4(&shifts, &quad.M, ShiftL2L, o, rho, &rows)
			for c := range shifts {
				out = append(out, shifts[c].C...)
			}
			return out
		}
		packedOK = true
		got := run()
		packedOK = false
		want := run()
		for i := range want {
			if !sameBits(real(got[i]), real(want[i])) || !sameBits(imag(got[i]), imag(want[i])) {
				t.Fatalf("p=%d from=%v coefficient %d: packed %v, scalar %v", p, from, i, got[i], want[i])
			}
		}
	})
}

// thetaQuads returns four directions per base direction that share its
// polar angle to the bit: (±x, ±y) swaps keep z and the norm's sum, so
// theta and rho are the base's and only phi differs.
func thetaQuads(base []geom.Vec3) (dirs []geom.Vec3) {
	for _, d := range base {
		dirs = append(dirs, d, geom.Vec3{X: -d.X, Y: d.Y, Z: d.Z},
			geom.Vec3{X: d.Y, Y: -d.X, Z: d.Z}, geom.Vec3{X: -d.Y, Y: -d.X, Z: d.Z})
	}
	return dirs
}

// BenchmarkM2LKernel times one translation (at width 4: one pair of four)
// through the table under both dispatch states, with the theta row in L1
// (warm: one class over and over) and fetched cold from a 2 600-row slab in
// shuffled class order (cold: what the far field pays, see
// BenchmarkM2LBatchTable). The theta4 rows time M2LBatchTheta over pairs
// whose classes come four to a theta (thetaQuads; warm: one theta, cold:
// 650 theta rows in shuffled order), so every quad runs the four-column
// kernel with per-column geometry: ns/translation there is per column,
// against w=1's per translation. It is the figure of EXPERIMENTS.md's
// kernel table.
func BenchmarkM2LKernel(b *testing.B) {
	const nDirs, vList, nSrc = 2600, 128, 256
	host := packedOK
	defer func() { packedOK = host }()
	for _, p := range []int{4, 8, 12} {
		rng := rand.New(rand.NewSource(43))
		tb := buildTable(p, benchDirs(rng, nDirs), nil, 0)
		tbq := buildTable(p, thetaQuads(benchDirs(rng, nDirs/4)), nil, 0)
		pool := make([]Expansion, nSrc)
		mslab := make([]complex128, 0, nSrc*sphharm.PackedLen(p))
		for i := range pool {
			pool[i] = randomExpansion(p, rng)
			mslab = append(mslab, pool[i].C...)
		}
		srcs := make([]M2LSource, vList)
		quads := make([]M2LSource4, vList)
		for i := range srcs {
			srcs[i].M = pool[rng.Intn(nSrc)]
			for c := range quads[i].M {
				quads[i].M[c] = pool[rng.Intn(nSrc)]
			}
		}
		w := NewWorkspace(p)
		l, _ := randomLocals(p, rng)
		var lslab []complex128
		for range l {
			lslab = append(lslab, randomExpansion(p, rng).C...)
		}
		for _, slab := range []string{"warm", "cold"} {
			classes := make([][]int32, 64)
			pairs := make([][]M2LPair, 64)
			for bi := range classes {
				for i := 0; i < vList; i++ {
					c, q := int32(7), int32(1)
					if slab == "cold" {
						c, q = int32(rng.Intn(nDirs)), int32(rng.Intn(nDirs/4))
					}
					classes[bi] = append(classes[bi], c)
					if i%4 == 0 {
						for k := range int32(4) {
							pairs[bi] = append(pairs[bi], M2LPair{L: int32(rng.Intn(4)), M: int32(rng.Intn(nSrc)), Class: 4*q + k})
						}
					}
				}
			}
			for _, state := range []string{"scalar", "packed"} {
				run := func(form string, batch func(i int)) {
					b.Run(fmt.Sprintf("p=%d/%s/%s/%s", p, form, slab, state), func(b *testing.B) {
						if packedOK = state == "packed"; packedOK && !host {
							b.Skip("no AVX2 on this host")
						}
						batch(0) // make the scratch
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							batch(i)
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vList), "ns/translation")
					})
				}
				run("w=1", func(i int) { w.M2LBatchTable(l[0], geom.Vec3{}, srcs, classes[i%len(classes)], tb) })
				run("w=4", func(i int) { w.M2LBatchTable4(&l, quads, classes[i%len(classes)], tb) })
				run("theta4", func(i int) { w.M2LBatchTheta(lslab, mslab, pairs[i%len(pairs)], tbq) })
			}
		}
	}
}
