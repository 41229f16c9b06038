package expansion

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"afmm/internal/geom"
)

// octantOffset is the center of the child in slot o of a parent at the
// origin, h the child's half-width (geom.Box.Child).
func octantOffset(o int, h float64) geom.Vec3 {
	sign := func(bit int) float64 { return float64(o>>bit&1)*2 - 1 }
	return geom.Vec3{X: sign(0) * h, Y: sign(1) * h, Z: sign(2) * h}
}

// TestChildShiftsMatchOracle: ChildShift (M2M and L2L) through the octant
// setup against the direct O(p^4) oracle, for all eight octants and three
// levels under a root half-width that is not a power of two, at 1e-13
// relative to the size of the terms each output degree sums
// (shiftRelDiff). The rows come from a ShiftRows covering the levels;
// ChildShift4 gives each column ChildShift's bits; and every form, the
// general-offset M2M and L2L over the same offset too, leaves the same
// bits under both dispatch states.
func TestChildShiftsMatchOracle(t *testing.T) {
	const tol, h0 = 1e-13, 0.3712
	states := dispatchStates(t)
	for _, p := range packedOrders {
		rng := rand.New(rand.NewSource(int64(130 + p)))
		w := NewWorkspace(p)
		var rows ShiftRows
		rows.Cover(p, h0, 3)
		ones := octants(p).ones
		var worst float64
		for lv := 0; lv < 3; lv++ {
			h := h0 / float64(int(1)<<lv)
			for o := 0; o < 8; o++ {
				child := octantOffset(o, h)
				var src [4]Expansion
				for c := range src {
					src[c] = randomExpansion(p, rng)
				}
				for _, kind := range []Shift{ShiftM2M, ShiftL2L} {
					want := NewExpansion(p)
					general := func(l Expansion) {
						if kind == ShiftM2M {
							w.M2M(l, geom.Vec3{}, src[0], child)
						} else {
							w.L2L(l, child, src[0], geom.Vec3{})
						}
					}
					if kind == ShiftM2M {
						w.m2mOracle(want, geom.Vec3{}, src[0], child)
					} else {
						w.l2lOracle(want, child, src[0], geom.Vec3{})
					}
					var first []complex128 // every form's bits in the first state
					for si, packed := range states {
						packedOK = packed
						got, gen := NewExpansion(p), NewExpansion(p)
						var got4 [4]Expansion
						for c := range got4 {
							got4[c] = NewExpansion(p)
						}
						w.ChildShift(got, src[0], kind, o, h, &rows)
						w.ChildShift4(&got4, &src, kind, o, h, &rows)
						general(gen)
						if at := firstDiff(got4[0].C, got.C); at >= 0 {
							t.Fatalf("p=%d level %d octant %d kind %d packed=%v coefficient %d: ChildShift4 %v, ChildShift %v",
								p, lv, o, kind, packed, at, got4[0].C[at], got.C[at])
						}
						all := slices.Concat(got.C, got4[0].C, got4[1].C, got4[2].C, got4[3].C, gen.C)
						if si == 0 {
							first = all
						} else if at := firstDiff(all, first); at >= 0 {
							t.Fatalf("p=%d level %d octant %d kind %d: value %d differs between the dispatch states", p, lv, o, kind, at)
						}
					}
					d := shiftRelDiff(p, first[:len(want.C)], want.C, src[0].C, scalarOrder(rows.row(h, kind), p), ones)
					if !(d <= tol) {
						t.Fatalf("p=%d level %d octant %d kind %d: deviates from the oracle by %g (tolerance %g)",
							p, lv, o, kind, d, tol)
					}
					worst = math.Max(worst, d)
				}
			}
		}
		t.Logf("p=%d: worst deviation %.2g", p, worst)
	}
}

// TestShiftRowsCover: rows are keyed by the exact half-width; a new root
// half-width rebuilds them in place, and an uncovered one is not served:
// a child shift there panics, at both widths.
func TestShiftRowsCover(t *testing.T) {
	const p = 6
	var rows ShiftRows
	rows.Cover(p, 0.75, 4)
	if rows.row(0.75/8, ShiftL2L) == nil || rows.row(0.75/16, ShiftM2M) != nil || rows.row(0.7, ShiftM2M) != nil {
		t.Fatal("rows do not cover exactly h0/2^i, i < levels")
	}
	before := &rows.rows[0]
	rows.Cover(p, 0.5, 4)
	if rows.row(0.75, ShiftM2M) != nil || rows.row(0.5/8, ShiftM2M) == nil || &rows.rows[0] != before {
		t.Fatal("a new root half-width did not rebuild the rows in place")
	}
	w := NewWorkspace(p)
	want := w.scratchRow(math.Sqrt(3)*0.25, ShiftL2L)
	for i, v := range rows.row(0.25, ShiftL2L) {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("entry %d: shared row %v, scratch row %v", i, v, want[i])
		}
	}
	var quad [4]Expansion
	for c := range quad {
		quad[c] = NewExpansion(p)
	}
	for _, shift := range []func(){
		func() { w.ChildShift(quad[0], quad[1], ShiftM2M, 0, 0.5/16, &rows) },
		func() { w.ChildShift4(&quad, &quad, ShiftL2L, 0, 0.3, &rows) },
		func() { w.ChildShift(quad[0], quad[1], ShiftL2L, 0, 0.25, nil) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "expansion: child shift at a half-width") {
					t.Fatalf("recovered %q, want the uncovered-row panic", msg)
				}
			}()
			shift()
		}()
	}
}

// TestChildShiftsAllocationFree: once a workspace has made its four-column
// scratch, M2M and L2L translate without allocating — through shared rows
// and at a general offset — in both states.
func TestChildShiftsAllocationFree(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		const p = 6
		rng := rand.New(rand.NewSource(45))
		w := NewWorkspace(p)
		var rows ShiftRows
		rows.Cover(p, 0.5, 3)
		var src, dst [4]Expansion
		for c := range src {
			src[c], dst[c] = randomExpansion(p, rng), NewExpansion(p)
		}
		w.ChildShift4(&dst, &src, ShiftM2M, 0, 0.25, &rows)
		a := testing.AllocsPerRun(10, func() {
			for o := 0; o < 8; o++ {
				for _, h := range []float64{0.25, 0.125} {
					w.ChildShift(dst[0], src[0], ShiftM2M, o, h, &rows)
					w.ChildShift(dst[1], src[1], ShiftL2L, o, h, &rows)
					w.ChildShift4(&dst, &src, ShiftM2M, o, h, &rows)
					w.ChildShift4(&dst, &src, ShiftL2L, o, h, &rows)
				}
			}
			w.M2M(dst[2], geom.Vec3{}, src[2], geom.Vec3{X: 0.1, Y: -0.2, Z: 0.3})
			w.L2L(dst[3], geom.Vec3{}, src[3], geom.Vec3{X: 0.1, Y: -0.2, Z: 0.3})
		})
		if a != 0 {
			t.Fatalf("M2M/L2L allocate %v times per round, want 0", a)
		}
	})
}

// BenchmarkTranslations times one M2M and one L2L between a cell and a
// child through the octant setup (at width 4: one of four columns) against
// the direct O(p^4) oracle, ns per translation.
func BenchmarkTranslations(b *testing.B) {
	for _, p := range []int{4, 8, 12} {
		rng := rand.New(rand.NewSource(44))
		w := NewWorkspace(p)
		var rows ShiftRows
		rows.Cover(p, 0.5, 2)
		var src, dst [4]Expansion
		for c := range src {
			src[c], dst[c] = randomExpansion(p, rng), NewExpansion(p)
		}
		w.ChildShift4(&dst, &src, ShiftM2M, 0, 0.25, &rows) // make the scratch
		run := func(name string, width int, f func(o int)) {
			b.Run(fmt.Sprintf("p=%d/%s", p, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					f(i & 7)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/translation")
			})
		}
		run("m2m/w=1", 1, func(o int) { w.ChildShift(dst[0], src[0], ShiftM2M, o, 0.25, &rows) })
		run("l2l/w=1", 1, func(o int) { w.ChildShift(dst[0], src[0], ShiftL2L, o, 0.25, &rows) })
		run("m2m/w=4", 4, func(o int) { w.ChildShift4(&dst, &src, ShiftM2M, o, 0.25, &rows) })
		run("l2l/w=4", 4, func(o int) { w.ChildShift4(&dst, &src, ShiftL2L, o, 0.25, &rows) })
		run("m2m/oracle", 1, func(o int) { w.m2mOracle(dst[0], geom.Vec3{}, src[0], octantOffset(o, 0.25)) })
		run("l2l/oracle", 1, func(o int) { w.l2lOracle(dst[0], octantOffset(o, 0.25), src[0], geom.Vec3{}) })
	}
}
