package expansion

import (
	"fmt"
	"math/rand"
	"testing"

	"afmm/internal/geom"
	"afmm/internal/octree"
)

// randomQuads draws four random source columns over the given centers: the
// pairs as the four-column kernel takes them, and column by column as the
// single-column forms do.
func randomQuads(p int, rng *rand.Rand, froms []geom.Vec3) (quads []M2LSource4, cols [4][]M2LSource) {
	for _, from := range froms {
		q := M2LSource4{From: from}
		for c := range cols {
			q.M[c] = randomExpansion(p, rng)
			cols[c] = append(cols[c], M2LSource{M: q.M[c], From: from})
		}
		quads = append(quads, q)
	}
	return quads, cols
}

// randomLocals returns four locals with random content, and a copy.
func randomLocals(p int, rng *rand.Rand) (a, b [4]Expansion) {
	for c := range a {
		a[c], b[c] = randomExpansion(p, rng), NewExpansion(p)
		copy(b[c].C, a[c].C)
	}
	return a, b
}

// fusedClassStride thins the real-tree classes of the width-4 gate.
const fusedClassStride = 8

// TestM2LFusedMatchesSingle is the gate of kernel width 4: translation by
// translation, column c of m2lApply4 equals m2lApply on column c's inputs,
// coefficient for coefficient, accumulating onto the same nonzero local —
// through the table in budget and squeezed to five stacks (so most theta
// spill) — on the golden batch, on exactly axial and equatorial offsets,
// and on the translation classes of the three real trees, under both
// dispatch states over one build of each table. The width-1 gate
// (TestM2LKernelMatchesOracle) visits every class sampledClasses keeps;
// this one every fusedClassStride-th of those, spread over each tree's
// directions.
func TestM2LFusedMatchesSingle(t *testing.T) {
	states := dispatchStates(t)
	check := func(name string, p int, to geom.Vec3, froms []geom.Vec3) {
		t.Helper()
		rng := rand.New(rand.NewSource(int64(70 + p)))
		quads, cols := randomQuads(p, rng, froms)
		w := NewWorkspace(p)
		var got, want [4]Expansion
		for c := range got {
			got[c], want[c] = NewExpansion(p), NewExpansion(p)
		}
		for _, rotCap := range []int{0, 5} {
			tb, classes := tableFor(p, to, cols[0], rotCap)
			for i := range quads {
				start, _ := randomLocals(p, rng)
				for _, packed := range states {
					packedOK = packed
					for c := range start {
						copy(got[c].C, start[c].C)
						copy(want[c].C, start[c].C)
					}
					w.M2LBatchTable4(&got, quads[i:i+1], classes[i:i+1], tb)
					for c := range want {
						w.M2LBatchTable(want[c], to, cols[c][i:i+1], classes[i:i+1], tb)
						for k := range want[c].C {
							if got[c].C[k] != want[c].C[k] {
								t.Fatalf("%s p=%d rotCap=%d packed=%v offset %v column %d coefficient %d: fused %v, single %v",
									name, p, rotCap, packed, froms[i].Sub(to), c, k, got[c].C[k], want[c].C[k])
							}
						}
					}
				}
			}
		}
	}
	for _, p := range oracleOrders {
		to, srcs := goldenBatch(p)
		var froms []geom.Vec3
		for _, s := range srcs {
			froms = append(froms, s.From)
		}
		check("golden", p, to, froms)
		check("axial", p, geom.Vec3{}, axialOffsets)
	}
	for _, tc := range treeCases {
		tr := octree.Build(tc.sys(), octree.Config{S: 24})
		tr.BuildLists()
		cls := tr.M2LClasses()
		for _, p := range oracleOrders {
			var froms []geom.Vec3
			for i, d := range sampledClasses(cls.Dirs, p) {
				if i%fusedClassStride == 0 {
					froms = append(froms, d)
				}
			}
			check(tc.name, p, geom.Vec3{}, froms)
		}
	}
}

// TestM2LBatchTable4AllocationFree: once the four-column scratch exists
// (the first call makes it), the fused table form translates a real V list
// without allocating, in budget and through the spill branch.
func TestM2LBatchTable4AllocationFree(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		const p = 4
		tr := octree.Build(treeCases[0].sys(), octree.Config{S: 24})
		tr.BuildLists()
		cls := tr.M2LClasses()
		ni := 0
		for i := range tr.Nodes {
			if len(tr.Nodes[i].V) > len(tr.Nodes[ni].V) {
				ni = i
			}
		}
		var froms []geom.Vec3
		for _, vi := range tr.Nodes[ni].V {
			froms = append(froms, tr.Nodes[vi].Box.Center)
		}
		rng := rand.New(rand.NewSource(34))
		quads, _ := randomQuads(p, rng, froms)
		l, _ := randomLocals(p, rng)
		w := NewWorkspace(p)
		for _, rotCap := range []int{0, 2} {
			tb := buildTable(p, cls.Dirs, cls.PairsPerClass, rotCap)
			a := testing.AllocsPerRun(10, func() {
				w.M2LBatchTable4(&l, quads, cls.Row(int32(ni)), tb)
			})
			if a != 0 {
				t.Errorf("rotCap=%d: M2LBatchTable4 allocates %v times per V list, want 0", rotCap, a)
			}
		}
	})
}

// BenchmarkM2LBatchTableFused holds the two ways of translating four
// columns over one geometry against each other the way stokes-cube-p4 runs
// them: 118-source V lists reading a cold 1 300-row theta slab in shuffled
// class order, as four single-column batches (one per harmonic pass) and
// as one four-column batch. ns/pair-of-four is the cost of one V-list pair
// for all four passes.
func BenchmarkM2LBatchTableFused(b *testing.B) {
	const nDirs, nBatch, vList, nSrc = 1300, 64, 118, 512
	for _, p := range []int{4, 8} {
		rng := rand.New(rand.NewSource(42))
		tb := buildTable(p, benchDirs(rng, nDirs), nil, 0)
		pool := make([]Expansion, nSrc)
		for i := range pool {
			pool[i] = randomExpansion(p, rng)
		}
		quads := make([][]M2LSource4, nBatch)
		var cols [4][][]M2LSource
		classes := make([][]int32, nBatch)
		for bi := range quads {
			for c := range cols {
				cols[c] = append(cols[c], nil)
			}
			for i := 0; i < vList; i++ {
				var q M2LSource4
				for c := range cols {
					q.M[c] = pool[rng.Intn(nSrc)]
					cols[c][bi] = append(cols[c][bi], M2LSource{M: q.M[c]})
				}
				quads[bi] = append(quads[bi], q)
				classes[bi] = append(classes[bi], int32(rng.Intn(nDirs)))
			}
		}
		w := NewWorkspace(p)
		l, _ := randomLocals(p, rng)
		report := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vList), "ns/pair-of-four")
		}
		b.Run(fmt.Sprintf("p=%d/single-x4", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for c := range cols {
					w.M2LBatchTable(l[c], geom.Vec3{}, cols[c][i%nBatch], classes[i%nBatch], tb)
				}
			}
			report(b)
		})
		b.Run(fmt.Sprintf("p=%d/fused", p), func(b *testing.B) {
			w.M2LBatchTable4(&l, quads[0], classes[0], tb) // make the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.M2LBatchTable4(&l, quads[i%nBatch], classes[i%nBatch], tb)
			}
			report(b)
		})
	}
}

// TestLeafOperators4MatchSingle: P2M4 and L2P4 evaluate the harmonics once
// for four charges or locals, and P2MLeaf4 and L2PLeaf4 once per body of a
// leaf; each column must equal the single-column operator (P2M, L2P,
// P2MLeaf, L2PLeaf) bit for bit, the leaf forms under both dispatch states.
func TestLeafOperators4MatchSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, p := range []int{0, 1, 4, 8} {
		w := NewWorkspace(p)
		center := geom.Vec3{X: 0.25, Y: -0.5, Z: 0.125}
		got, want := randomLocals(p, rng)
		for body := 0; body < 10; body++ {
			pos := center.Add(geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Scale(0.1))
			q := [4]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			w.P2M4(&got, center, pos, q)
			for c := range want {
				w.P2M(want[c], center, pos, q[c])
			}
			phi, grad := w.L2P4(&got, center, pos)
			for c := range want {
				if ph, g := w.L2P(want[c], center, pos); ph != phi[c] || g != grad[c] {
					t.Fatalf("p=%d column %d: L2P4 (%v, %v), L2P (%v, %v)", p, c, phi[c], grad[c], ph, g)
				}
				for k := range want[c].C {
					if got[c].C[k] != want[c].C[k] {
						t.Fatalf("p=%d column %d coefficient %d: P2M4 %v, P2M %v", p, c, k, got[c].C[k], want[c].C[k])
					}
				}
			}
		}
	}
	eachDispatch(t, func(t *testing.T) {
		for _, p := range []int{0, 1, 4, 8} {
			w := NewWorkspace(p)
			for n := 1; n <= 9; n++ {
				in := randomLeaf(p, n, rng)
				got := in.copies()
				w.P2MLeaf4(&got, in.center, in.pos, func(i int) [4]float64 { return in.q[i] })
				var phi4 [][4]float64
				var grad4 [][4]geom.Vec3
				w.L2PLeaf4(&in.l, in.center, in.pos, func(_ int, phi [4]float64, grad [4]geom.Vec3) {
					phi4, grad4 = append(phi4, phi), append(grad4, grad)
				})
				want := in.copies()
				q := make([]float64, n)
				for c := range want {
					for i := range q {
						q[i] = in.q[i][c]
					}
					w.P2MLeaf(want[c], in.center, in.pos, q)
					for k := range want[c].C {
						if got[c].C[k] != want[c].C[k] {
							t.Fatalf("p=%d leaf of %d column %d coefficient %d: P2MLeaf4 %v, P2MLeaf %v", p, n, c, k, got[c].C[k], want[c].C[k])
						}
					}
					w.L2PLeaf(in.l[c], in.center, in.pos, func(i int, phi float64, grad geom.Vec3) {
						if phi != phi4[i][c] || grad != grad4[i][c] {
							t.Fatalf("p=%d leaf of %d column %d body %d: L2PLeaf4 (%v, %v), L2PLeaf (%v, %v)", p, n, c, i, phi4[i][c], grad4[i][c], phi, grad)
						}
					})
				}
			}
		}
	})
}
