package expansion

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"afmm/internal/distrib"
	"afmm/internal/geom"
	"afmm/internal/octree"
	"afmm/internal/particle"
	"afmm/internal/sphharm"
)

// tableFor builds a table + class indices for a source batch: one class
// per distinct direction, exactly as the octree schedule would key them.
// rotCap > 0 shrinks the theta byte budget to rotCap Wigner stacks, so
// tests can force the spill path for the remaining theta (0 = the
// production budget).
func tableFor(p int, to geom.Vec3, srcs []M2LSource, rotCap int) (*M2LTable, []int32) {
	byDir := map[geom.Vec3]int32{}
	var dirs []geom.Vec3
	classes := make([]int32, len(srcs))
	for i, s := range srcs {
		d := s.From.Sub(to)
		c, ok := byDir[d]
		if !ok {
			c = int32(len(dirs))
			byDir[d] = c
			dirs = append(dirs, d)
		}
		classes[i] = c
	}
	return buildTable(p, dirs, nil, rotCap), classes
}

func buildTable(p int, dirs []geom.Vec3, pairs []int64, rotCap int) *M2LTable {
	tb := NewM2LTable(p)
	if rotCap > 0 {
		tb.thetaBudget = rotCap * 8 * halfLen(p)
	}
	tb.BuildRotRange(0, tb.Plan(dirs, pairs, 0))
	return tb
}

// TestM2LBatchTableBitIdentical is the central kernel-speed invariant:
// table-driven translations must equal the uncached reference batch
// bit-for-bit, over random expansions, orders, and direction sets
// (repeated V-list-like offsets plus arbitrary fresh ones).
func TestM2LBatchTableBitIdentical(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for _, p := range []int{2, 3, 5, 8, 12} {
			to := geom.Vec3{X: 0.3, Y: -0.1, Z: 0.2}
			var srcs []M2LSource
			lattice := []geom.Vec3{
				{X: 3, Y: 0, Z: 0}, {X: 0, Y: 3, Z: 1.5}, {X: -3, Y: 3, Z: -3},
				{X: 2, Y: -2, Z: 2},
			}
			for rep := 0; rep < 3; rep++ {
				for _, d := range lattice {
					srcs = append(srcs, M2LSource{M: randomExpansion(p, rng), From: to.Add(d)})
				}
			}
			for i := 0; i < 6; i++ {
				srcs = append(srcs, M2LSource{
					M:    randomExpansion(p, rng),
					From: to.Add(geom.Vec3{X: 3 + rng.Float64(), Y: -2 + rng.Float64(), Z: 2 + rng.Float64()}),
				})
			}
			// Full table, and a tiny-budget table that forces the spill path for
			// the less popular theta — both must be bit-identical to M2LBatch.
			for _, rotCap := range []int{0, 3} {
				tb, classes := tableFor(p, to, srcs, rotCap)

				got := NewExpansion(p)
				NewWorkspace(p).M2LBatchTable(got, to, srcs, classes, tb)

				want := NewExpansion(p)
				NewWorkspace(p).M2LBatch(want, to, srcs)

				for i := range got.C {
					if got.C[i] != want.C[i] {
						t.Fatalf("p=%d rotCap=%d: coefficient %d differs: table %v vs batch %v",
							p, rotCap, i, got.C[i], want.C[i])
					}
				}
			}
		}
	})
}

// TestM2LBatchTableRandomTrees fuzzes the bit-identity over many random
// batch shapes: random direction counts, random repeats, random nonzero
// accumulator seeds.
func TestM2LBatchTableRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const p = 6
	for trial := 0; trial < 50; trial++ {
		to := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		nd := 1 + rng.Intn(8)
		dirs := make([]geom.Vec3, nd)
		for i := range dirs {
			// Well-separated offsets, as the MAC guarantees.
			dirs[i] = geom.Vec3{
				X: (2 + rng.Float64()*3) * float64(1-2*rng.Intn(2)),
				Y: (2 + rng.Float64()*3) * float64(1-2*rng.Intn(2)),
				Z: (2 + rng.Float64()*3) * float64(1-2*rng.Intn(2)),
			}
		}
		var srcs []M2LSource
		for i := 0; i < 1+rng.Intn(20); i++ {
			srcs = append(srcs, M2LSource{
				M:    randomExpansion(p, rng),
				From: to.Add(dirs[rng.Intn(nd)]),
			})
		}
		tb, classes := tableFor(p, to, srcs, 1+rng.Intn(nd+2))

		got := NewExpansion(p)
		want := NewExpansion(p)
		for i := range got.C {
			c := complex(rng.NormFloat64(), rng.NormFloat64())
			got.C[i] = c
			want.C[i] = c
		}
		NewWorkspace(p).M2LBatchTable(got, to, srcs, classes, tb)
		NewWorkspace(p).M2LBatch(want, to, srcs)
		for i := range got.C {
			if got.C[i] != want.C[i] {
				t.Fatalf("trial %d: coefficient %d differs: %v vs %v",
					trial, i, got.C[i], want.C[i])
			}
		}
	}
}

// TestM2LTableConcurrentBuildAndUse builds ranges concurrently and then
// consumes the table from several workspaces at once (the production
// access pattern: parallel build, read-only shared use).
func TestM2LTableConcurrentBuildAndUse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const p = 5
	to := geom.Vec3{}
	var dirs []geom.Vec3
	for i := 0; i < 64; i++ {
		dirs = append(dirs, geom.Vec3{
			X: 3 + rng.Float64(), Y: -3 - rng.Float64(), Z: 2 + rng.Float64(),
		})
	}
	tb := NewM2LTable(p)
	nrot := tb.Plan(dirs, nil, 0)
	var wg sync.WaitGroup
	for lo := 0; lo < nrot; lo += 16 {
		hi := lo + 16
		if hi > nrot {
			hi = nrot
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			tb.BuildRotRange(lo, hi)
		}(lo, hi)
	}
	wg.Wait()

	var srcs []M2LSource
	var classes []int32
	for i := 0; i < 40; i++ {
		c := rng.Intn(len(dirs))
		srcs = append(srcs, M2LSource{M: randomExpansion(p, rng), From: to.Add(dirs[c])})
		classes = append(classes, int32(c))
	}
	want := NewExpansion(p)
	NewWorkspace(p).M2LBatch(want, to, srcs)

	var uwg sync.WaitGroup
	for g := 0; g < 4; g++ {
		uwg.Add(1)
		go func() {
			defer uwg.Done()
			got := NewExpansion(p)
			NewWorkspace(p).M2LBatchTable(got, to, srcs, classes, tb)
			for i := range got.C {
				if got.C[i] != want.C[i] {
					t.Errorf("coefficient %d differs under concurrent use", i)
					return
				}
			}
		}()
	}
	uwg.Wait()
}

// goldenBatch is a fixed V-list-like batch: repeated lattice offsets at two
// scales plus fresh directions, random Hermitian sources.
func goldenBatch(p int) (geom.Vec3, []M2LSource) {
	rng := rand.New(rand.NewSource(int64(1000 + p)))
	to := geom.Vec3{X: 0.125, Y: -0.375, Z: 0.25}
	var srcs []M2LSource
	for _, scale := range []float64{1, 0.5} {
		for _, d := range []geom.Vec3{
			{X: 3, Y: 0, Z: 0}, {X: 0, Y: -3, Z: 1}, {X: -2, Y: 3, Z: -3},
			{X: 2, Y: -2, Z: 2}, {X: 0, Y: 0, Z: -4}, {X: 1, Y: 2, Z: 3},
		} {
			srcs = append(srcs, M2LSource{M: randomExpansion(p, rng), From: to.Add(d.Scale(scale))})
		}
	}
	for i := 0; i < 8; i++ {
		srcs = append(srcs, M2LSource{
			M:    randomExpansion(p, rng),
			From: to.Add(geom.Vec3{X: 3 + rng.Float64(), Y: -2 + rng.Float64(), Z: 2 * rng.NormFloat64()}),
		})
	}
	return to, srcs
}

func hashCoeffs(c []complex128) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, v := range c {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestM2LKernelGoldenBits pins the kernel's numerics so a refactor that
// moves a bit is caught: the hashes are of the coefficient bits the
// real-arithmetic half-stack kernel produced for goldenBatch when it
// replaced the complex kernel of commit 14d1dcf (which it matches to
// rounding, TestM2LKernelMatchesOracle). The table, its spill path and the
// uncached M2LBatch must all reproduce them.
func TestM2LKernelGoldenBits(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		golden := map[int]uint64{
			2: 0x7fb297f7e92805b0, 4: 0xddac083fb5873fbc,
			8: 0xc475ca7a2fa378d2, 12: 0x19f290b23ef892b6,
		}
		for p, want := range golden {
			to, srcs := goldenBatch(p)
			batch := NewExpansion(p)
			NewWorkspace(p).M2LBatch(batch, to, srcs)
			if got := hashCoeffs(batch.C); got != want {
				t.Errorf("p=%d: M2LBatch hash %#x, pinned %#x", p, got, want)
			}
			for _, rotCap := range []int{0, 3} {
				tb, classes := tableFor(p, to, srcs, rotCap)
				l := NewExpansion(p)
				NewWorkspace(p).M2LBatchTable(l, to, srcs, classes, tb)
				if got := hashCoeffs(l.C); got != want {
					t.Errorf("p=%d rotCap=%d: M2LBatchTable hash %#x, pinned %#x", p, rotCap, got, want)
				}
			}
		}
	})
}

// TestHalfStackFold checks the fold the kernel's rotations read against
// the full signed stack it is folded from, at the special angles and at
// random ones, up to MaxOrder: P and Q are exactly the stated sums and
// differences; Q's row 0 vanishes (w(0,m) == w(0,-m), so a real M_n^0
// stays real); and the signed stack is D-symmetric bit-for-bit,
// w(m,m') == (-1)^{m+m'} w(m',m) — the identity that lets the forward
// (transposed) rotation run on the back rotation's half stack. The slab is
// lane-major (halfStackInto): entry (m', m) of degree n sits in column m
// at row m', and every padding row of every column is +0 — also in a table
// slab that served another list epoch and was poisoned in between.
func TestHalfStackFold(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	thetas := []float64{0, math.Pi / 2, math.Pi, math.Pi / 4, math.Acos(1 / math.Sqrt(3))}
	for i := 0; i < 60; i++ {
		thetas = append(thetas, math.Pi*rng.Float64())
	}
	// checkPadding fails unless every padding float of the half stack is +0
	// and the columns cover it exactly.
	checkPadding := func(what string, p int, half []float64) {
		t.Helper()
		off := 0
		for n := 0; n <= p; n++ {
			h, hp := n+1, lanePad(n+1)
			for m := 0; m <= n; m++ {
				for _, v := range append(half[off+h:off+hp:off+hp], half[off+hp+h:off+2*hp]...) {
					if math.Float64bits(v) != 0 {
						t.Fatalf("%s p=%d n=%d column %d: padding holds %v (%#x), want +0",
							what, p, n, m, v, math.Float64bits(v))
					}
				}
				off += 2 * hp
			}
		}
		if off != len(half) {
			t.Fatalf("%s p=%d: fold covers %d of %d floats", what, p, off, len(half))
		}
	}
	for _, p := range []int{0, 1, 3, 8, sphharm.MaxOrder} {
		r := newRotWorkspace(p)
		half := make([]float64, halfLen(p))
		for _, theta := range thetas {
			for i := range half {
				half[i] = math.NaN() // the fold writes every float
			}
			r.halfStackInto(half, p, theta)
			signedWignerInto(r.stack, p, theta) // the fold's input, recomputed
			checkPadding("scratch", p, half)
			off := 0
			for n := 0; n <= p; n++ {
				dim, hp := 2*n+1, lanePad(n+1)
				w := func(mp, m int) float64 { return r.stack[n][(mp+n)*dim+m+n] }
				for mp := -n; mp <= n; mp++ {
					for m := -n; m <= n; m++ {
						if w(m, mp) != signPow(m+mp)*w(mp, m) {
							t.Fatalf("p=%d theta=%v n=%d: w(%d,%d) = %v but w(%d,%d) = %v: not D-symmetric",
								p, theta, n, m, mp, w(m, mp), mp, m, w(mp, m))
						}
					}
				}
				for mp := 0; mp <= n; mp++ {
					pr := func(m int) float64 { return half[off+2*hp*m+mp] }
					qr := func(m int) float64 { return half[off+2*hp*m+hp+mp] }
					if pr(0) != w(mp, 0) || qr(0) != w(mp, 0) {
						t.Fatalf("p=%d theta=%v n=%d m'=%d: column 0 is (%v, %v), want w(m',0) = %v",
							p, theta, n, mp, pr(0), qr(0), w(mp, 0))
					}
					for m := 1; m <= n; m++ {
						if pr(m) != w(mp, m)+w(mp, -m) || qr(m) != w(mp, m)-w(mp, -m) {
							t.Fatalf("p=%d theta=%v n=%d: P/Q[%d][%d] = (%v, %v), want (%v, %v)", p, theta, n, mp, m,
								pr(m), qr(m), w(mp, m)+w(mp, -m), w(mp, m)-w(mp, -m))
						}
						if mp == 0 && qr(m) != 0 {
							t.Fatalf("p=%d theta=%v n=%d: Q[0][%d] = %v, want 0", p, theta, n, m, qr(m))
						}
					}
				}
				off += 2 * hp * (n + 1)
			}
		}
	}
	// A table slab is recycled across list epochs: poison it, re-plan for
	// other directions, and the rebuilt rows must equal a fresh table's.
	for _, p := range []int{3, 8} {
		dirs := benchDirs(rng, 40)
		tb := buildTable(p, dirs, nil, 0)
		poison := tb.stacks[:cap(tb.stacks)]
		for i := range poison {
			poison[i] = math.NaN()
		}
		dirs = benchDirs(rng, 30)
		tb.BuildRotRange(0, tb.Plan(dirs, nil, 0))
		fresh := buildTable(p, dirs, nil, 0)
		if len(tb.stacks) != len(fresh.stacks) || tb.Rotations() == 0 {
			t.Fatalf("p=%d: recycled slab has %d floats, fresh %d", p, len(tb.stacks), len(fresh.stacks))
		}
		for ri := 0; ri < tb.Rotations(); ri++ {
			row := tb.stacks[ri*tb.hl : (ri+1)*tb.hl]
			checkPadding("recycled slab", p, row)
			for i, v := range row {
				if math.Float64bits(v) != math.Float64bits(fresh.stacks[ri*tb.hl+i]) {
					t.Fatalf("p=%d row %d float %d: recycled %v, fresh %v", p, ri, i, v, fresh.stacks[ri*tb.hl+i])
				}
			}
		}
	}
}

// treeCases are the three body distributions the table properties are
// checked on: centrally concentrated, uniform, and bimodal.
var treeCases = []struct {
	name string
	sys  func() *particle.System
}{
	{"plummer", func() *particle.System { return distrib.Plummer(3000, 1, 1, 5) }},
	{"cube", func() *particle.System { return distrib.UniformCube(3000, 1, 6) }},
	{"two-clusters", func() *particle.System { return distrib.TwoClusters(3000, 0.3, 1, 8, 0, 7) }},
}

// sweepTree applies every node's V list (random multipoles mp) through
// apply and returns the hash of all resulting locals, in node order.
func sweepTree(tr *octree.Tree, p int, mp []Expansion, apply func(w *Workspace, l Expansion, ni int32, srcs []M2LSource)) uint64 {
	w := NewWorkspace(p)
	var all []complex128
	for ni := range tr.Nodes {
		n := &tr.Nodes[ni]
		if len(n.V) == 0 {
			continue
		}
		srcs := w.Sources(len(n.V))
		for _, vi := range n.V {
			srcs = append(srcs, M2LSource{M: mp[vi], From: tr.Nodes[vi].Box.Center})
		}
		l := NewExpansion(p)
		apply(w, l, int32(ni), srcs)
		all = append(all, l.C...)
	}
	return hashCoeffs(all)
}

// TestM2LTableRealTrees: on real adaptive trees the in-budget table covers
// every class, a table squeezed to a handful of stacks spills most of
// them, and both equal the uncached reference bit-for-bit over every V
// list.
func TestM2LTableRealTrees(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		const p = 4
		for _, tc := range treeCases {
			tr := octree.Build(tc.sys(), octree.Config{S: 24})
			tr.BuildLists()
			cls := tr.M2LClasses()
			rng := rand.New(rand.NewSource(31))
			mp := make([]Expansion, len(tr.Nodes))
			for i := range mp {
				mp[i] = randomExpansion(p, rng)
			}
			want := sweepTree(tr, p, mp, func(w *Workspace, l Expansion, ni int32, srcs []M2LSource) {
				w.M2LBatch(l, tr.Nodes[ni].Box.Center, srcs)
			})
			for _, rotCap := range []int{0, 5} {
				tb := buildTable(p, cls.Dirs, cls.PairsPerClass, rotCap)
				covered := 0
				for c := range cls.Dirs {
					if tb.HasRot(c) {
						covered++
					}
				}
				if rotCap == 0 && covered != cls.Classes() {
					t.Errorf("%s: in-budget table covers %d of %d classes", tc.name, covered, cls.Classes())
				}
				if rotCap > 0 && (tb.Rotations() != rotCap || covered == cls.Classes()) {
					t.Errorf("%s: squeezed table kept %d stacks (want %d), covers %d of %d classes",
						tc.name, tb.Rotations(), rotCap, covered, cls.Classes())
				}
				// The stacks go to the theta that carry the most pairs.
				weight := make([]int64, len(tb.thetas))
				for c, op := range tb.ops {
					weight[op.theta] += cls.PairsPerClass[c]
				}
				if kept, spilled := slices.Min(weight[:tb.Rotations()]), slices.Max(append(weight[tb.Rotations():], 0)); kept < spilled {
					t.Errorf("%s rotCap=%d: a kept theta carries %d pairs, a spilled one %d", tc.name, rotCap, kept, spilled)
				}
				got := sweepTree(tr, p, mp, func(w *Workspace, l Expansion, ni int32, srcs []M2LSource) {
					w.M2LBatchTable(l, tr.Nodes[ni].Box.Center, srcs, cls.Row(ni), tb)
				})
				if got != want {
					t.Errorf("%s rotCap=%d: table sweep hash %#x != batch sweep %#x", tc.name, rotCap, got, want)
				}
			}
		}
	})
}

// TestM2LTablePlanDeterministic: the slab layout is a function of the
// class list alone — no map-iteration order leaks into row numbers —
// whether the table is fresh or re-planned after serving another tree.
func TestM2LTablePlanDeterministic(t *testing.T) {
	const p = 3
	var prev *octree.M2LClassSchedule
	for _, tc := range treeCases {
		tr := octree.Build(tc.sys(), octree.Config{S: 24})
		tr.BuildLists()
		cls := tr.M2LClasses()
		a := buildTable(p, cls.Dirs, cls.PairsPerClass, 40)
		for rep := 0; rep < 3; rep++ {
			b := NewM2LTable(p)
			b.thetaBudget = a.thetaBudget
			if prev != nil {
				b.BuildRotRange(0, b.Plan(prev.Dirs, prev.PairsPerClass, 0))
			}
			b.BuildRotRange(0, b.Plan(cls.Dirs, cls.PairsPerClass, 0))
			if !reflect.DeepEqual(a.ops, b.ops) || !reflect.DeepEqual(a.thetas, b.thetas) ||
				!reflect.DeepEqual(a.stacks, b.stacks) || !reflect.DeepEqual(a.zph, b.zph) ||
				!reflect.DeepEqual(a.rpow, b.rpow) || a.nStack != b.nStack {
				t.Fatalf("%s: plan %d laid the table out differently", tc.name, rep)
			}
		}
		c := *cls
		c.Dirs = append([]geom.Vec3(nil), cls.Dirs...)
		c.PairsPerClass = append([]int64(nil), cls.PairsPerClass...)
		prev = &c
	}
}

// TestM2LTableReplanAllocationFree: a table that has served one list
// epoch re-plans and rebuilds for the same directions without allocating —
// key maps, ranking scratch, slabs and the build's full-stack scratch are
// all kept on the table (what a dynamic run pays per list rebuild).
func TestM2LTableReplanAllocationFree(t *testing.T) {
	const p = 4
	tr := octree.Build(treeCases[0].sys(), octree.Config{S: 24})
	tr.BuildLists()
	cls := tr.M2LClasses()
	tb := buildTable(p, cls.Dirs, cls.PairsPerClass, 0)
	want := append([]float64(nil), tb.stacks...)
	a := testing.AllocsPerRun(5, func() {
		tb.BuildRotRange(0, tb.Plan(cls.Dirs, cls.PairsPerClass, 0))
	})
	if a != 0 {
		t.Errorf("re-plan + rebuild allocates %v times, want 0", a)
	}
	if !reflect.DeepEqual(tb.stacks, want) {
		t.Error("re-planned table differs from the first build")
	}
}

// repairEpoch moves tr's bodies a little and repairs the lists the way the
// balancer does between solves (Refill, Enforce_S, BuildLists).
func repairEpoch(tr *octree.Tree, rng *rand.Rand) {
	for i := range tr.Sys.Pos {
		tr.Sys.Pos[i] = tr.Sys.Pos[i].Add(geom.Vec3{
			X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64(),
		}.Scale(0.01))
	}
	tr.Refill()
	tr.EnforceS()
	tr.BuildLists()
}

// requireSetupBits asserts every class of got sets up the bits of want's:
// half stack, phase row and radial row, compared with Float64bits.
func requireSetupBits(t *testing.T, got, want *M2LTable, classes int, stage string) {
	t.Helper()
	rg, rw := newRotWorkspace(got.p), newRotWorkspace(want.p)
	for c := int32(0); c < int32(classes); c++ {
		gh, gz, gr := got.setup(rg, c)
		wh, wz, wr := want.setup(rw, c)
		same := len(gh) == len(wh) && len(gz) == len(wz) && len(gr) == len(wr)
		for i := 0; same && i < len(wh); i++ {
			same = math.Float64bits(gh[i]) == math.Float64bits(wh[i])
		}
		for i := 0; same && i < len(wz); i++ {
			same = math.Float64bits(real(gz[i])) == math.Float64bits(real(wz[i])) &&
				math.Float64bits(imag(gz[i])) == math.Float64bits(imag(wz[i]))
		}
		for i := 0; same && i < len(wr); i++ {
			same = math.Float64bits(gr[i]) == math.Float64bits(wr[i])
		}
		if !same {
			t.Fatalf("%s: class %d sets up different bits than a fresh Plan", stage, c)
		}
	}
}

// TestM2LTableExtendMatchesPlan: a table carried through a chain of list
// repairs by Extend — the way core.SharedM2L carries it while the class
// schedule keeps its Gen — sets up, for every class, the bits a table
// freshly planned from the same directions does. An Extend that meets no
// new theta, phi or rho allocates nothing, and under a squeezed theta
// budget Extend re-plans and the translations still equal the reference.
func TestM2LTableExtendMatchesPlan(t *testing.T) {
	const p = 4
	for _, tc := range treeCases {
		rng := rand.New(rand.NewSource(43))
		tr := octree.Build(tc.sys(), octree.Config{S: 24})
		tr.BuildLists()
		cls := tr.M2LClasses()
		tb := buildTable(p, cls.Dirs, cls.PairsPerClass, 0)
		gen, planned, extended := cls.Gen, cls.Classes(), 0
		for epoch := 0; epoch < 8; epoch++ {
			repairEpoch(tr, rng)
			cls = tr.M2LClasses()
			var lo, hi int
			if cls.Gen == gen {
				if lo, hi = tb.Extend(cls.Dirs, cls.PairsPerClass, planned); lo != 0 {
					extended++
				}
			} else {
				hi = tb.Plan(cls.Dirs, cls.PairsPerClass, 0)
			}
			tb.BuildRotRange(lo, hi)
			gen, planned = cls.Gen, cls.Classes()
			if tb.Rotations() != len(tb.thetas) {
				t.Fatalf("%s epoch %d: in-budget table spilled", tc.name, epoch)
			}
			fresh := buildTable(p, cls.Dirs, cls.PairsPerClass, 0)
			requireSetupBits(t, tb, fresh, cls.Classes(), fmt.Sprintf("%s epoch %d", tc.name, epoch))
		}
		if extended == 0 {
			t.Fatalf("%s: no epoch extended the table", tc.name)
		}

		// Classes whose theta, phi and rho are all known: no allocation,
		// no new theta row. (Truncating ops undoes such an Extend exactly;
		// a re-plan per run would not do, since a cleared map may re-grow.)
		n := cls.Classes()
		dirs := append(append([]geom.Vec3(nil), cls.Dirs...), cls.Dirs[:64]...)
		tb.Plan(dirs, nil, 0)
		tb.Plan(dirs[:n], nil, 0)
		var lo, hi int
		if a := testing.AllocsPerRun(5, func() {
			tb.ops = tb.ops[:n]
			lo, hi = tb.Extend(dirs, nil, n)
		}); a != 0 {
			t.Errorf("%s: Extend by known keys allocates %v times, want 0", tc.name, a)
		}
		if lo != hi || len(tb.ops) != len(dirs) {
			t.Errorf("%s: Extend by known keys added theta rows [%d, %d)", tc.name, lo, hi)
		}
	}

	// Squeezed budget: a spilled table, and one whose budget is exactly
	// full, both re-plan instead of extending, and translate as M2LBatch.
	eachDispatch(t, func(t *testing.T) {
		tc := treeCases[0]
		for _, squeeze := range []string{"spilled", "full", "full-one-theta"} {
			rng := rand.New(rand.NewSource(44))
			tr := octree.Build(tc.sys(), octree.Config{S: 24})
			tr.BuildLists()
			cls := tr.M2LClasses()
			tb := buildTable(p, cls.Dirs, cls.PairsPerClass, 5)
			if squeeze != "spilled" {
				tb = buildTable(p, cls.Dirs, cls.PairsPerClass, 0)
				tb.thetaBudget = tb.Rotations() * 8 * tb.hl
			}
			// Repair until the schedule appends a class with an unseen theta.
			newTheta := func(dirs []geom.Vec3) bool {
				for _, d := range dirs {
					if _, theta, _ := d.Spherical(); !slices.ContainsFunc(tb.thetas, func(k thetaKey) bool { return k.theta == theta }) {
						return true
					}
				}
				return false
			}
			gen, planned := cls.Gen, cls.Classes()
			for epoch := 0; cls.Gen != gen || !newTheta(cls.Dirs[planned:]); epoch++ {
				if epoch == 50 {
					t.Fatalf("%s: no repair met a new theta in 50 epochs", squeeze)
				}
				if cls.Gen != gen {
					gen, planned = cls.Gen, cls.Classes()
					tb.BuildRotRange(0, tb.Plan(cls.Dirs, cls.PairsPerClass, 0))
				}
				repairEpoch(tr, rng)
				cls = tr.M2LClasses()
			}
			// full-one-theta extends through the first class with an unseen
			// theta only: one theta past a full budget re-plans too.
			end := len(cls.Dirs)
			if squeeze == "full-one-theta" {
				end = planned + 1 + slices.IndexFunc(cls.Dirs[planned:], func(d geom.Vec3) bool { return newTheta([]geom.Vec3{d}) })
			}
			lo, hi := tb.Extend(cls.Dirs[:end], cls.PairsPerClass[:end], planned)
			if lo != 0 || hi != tb.Rotations() || tb.Rotations() == len(tb.thetas) {
				t.Fatalf("%s: Extend kept [%d, %d) of %d stacks for %d theta instead of re-planning",
					squeeze, lo, hi, tb.Rotations(), len(tb.thetas))
			}
			if end < len(cls.Dirs) { // the spilled table re-plans for the rest
				lo, hi = tb.Extend(cls.Dirs, cls.PairsPerClass, end)
			}
			tb.BuildRotRange(lo, hi)
			mp := make([]Expansion, len(tr.Nodes))
			for i := range mp {
				mp[i] = randomExpansion(p, rng)
			}
			want := sweepTree(tr, p, mp, func(w *Workspace, l Expansion, ni int32, srcs []M2LSource) {
				w.M2LBatch(l, tr.Nodes[ni].Box.Center, srcs)
			})
			got := sweepTree(tr, p, mp, func(w *Workspace, l Expansion, ni int32, srcs []M2LSource) {
				w.M2LBatchTable(l, tr.Nodes[ni].Box.Center, srcs, cls.Row(ni), tb)
			})
			if got != want {
				t.Errorf("%s: table sweep hash %#x != batch sweep %#x", squeeze, got, want)
			}
		}
	})
}

// TestM2LBatchTableAllocationFree gates the steady state: over a real V
// list neither the in-budget table nor the spill branch allocates.
func TestM2LBatchTableAllocationFree(t *testing.T) {
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
		n := &tr.Nodes[ni]
		rng := rand.New(rand.NewSource(32))
		w := NewWorkspace(p)
		srcs := w.Sources(len(n.V))
		for _, vi := range n.V {
			srcs = append(srcs, M2LSource{M: randomExpansion(p, rng), From: tr.Nodes[vi].Box.Center})
		}
		l := NewExpansion(p)
		for _, rotCap := range []int{0, 2} {
			tb := buildTable(p, cls.Dirs, cls.PairsPerClass, rotCap)
			spilled := 0
			for _, c := range cls.Row(int32(ni)) {
				if !tb.HasRot(int(c)) {
					spilled++
				}
			}
			if (rotCap > 0) != (spilled > 0) {
				t.Fatalf("rotCap=%d: %d of %d pairs spill", rotCap, spilled, len(srcs))
			}
			a := testing.AllocsPerRun(10, func() {
				w.M2LBatchTable(l, n.Box.Center, srcs, cls.Row(int32(ni)), tb)
			})
			if a != 0 {
				t.Errorf("rotCap=%d: M2LBatchTable allocates %v times per V list, want 0", rotCap, a)
			}
		}
	})
}

// FuzzM2LTable: for arbitrary direction sets, orders and theta budgets the
// table translation equals the uncached reference bit-for-bit, at kernel
// width 1 and — column by column — at width 4.
func FuzzM2LTable(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(6), uint8(0))
	f.Add(int64(2), uint8(7), uint8(20), uint8(3))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1))
	f.Add(int64(4), uint8(0), uint8(9), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, order, ndirs, rotCap uint8) {
		p := int(order % 10)
		rng := rand.New(rand.NewSource(seed))
		to := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		// Offsets on a coarse lattice (shared theta, phi and rho across
		// distinct directions, as in a tree) and off it.
		dirs := make([]geom.Vec3, 1+int(ndirs%32))
		for i := range dirs {
			d := geom.Vec3{X: float64(rng.Intn(9) - 4), Y: float64(rng.Intn(9) - 4), Z: float64(rng.Intn(9) - 4)}
			if rng.Intn(4) == 0 {
				d = d.Add(geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
			}
			if d.Norm() < 2 {
				d.Z += 5
			}
			dirs[i] = d.Scale(float64(int(1)<<rng.Intn(3)) / 4)
		}
		var froms []geom.Vec3
		for i := 0; i < 1+rng.Intn(30); i++ {
			froms = append(froms, to.Add(dirs[rng.Intn(len(dirs))]))
		}
		quads, cols := randomQuads(p, rng, froms)
		tb, classes := tableFor(p, to, cols[0], int(rotCap%8))
		var fused [4]Expansion
		for c := range fused {
			fused[c] = NewExpansion(p)
		}
		NewWorkspace(p).M2LBatchTable4(&fused, quads, classes, tb)
		for c, srcs := range cols {
			got, want := NewExpansion(p), NewExpansion(p)
			NewWorkspace(p).M2LBatchTable(got, to, srcs, classes, tb)
			NewWorkspace(p).M2LBatch(want, to, srcs)
			for i := range want.C {
				if got.C[i] != want.C[i] || fused[c].C[i] != want.C[i] {
					t.Fatalf("column %d coefficient %d differs: table %v, fused %v vs batch %v",
						c, i, got.C[i], fused[c].C[i], want.C[i])
				}
			}
		}
	})
}

// benchDirs draws n well-separated offsets at three box scales (so nearly
// as many distinct theta rows).
func benchDirs(rng *rand.Rand, n int) []geom.Vec3 {
	dirs := make([]geom.Vec3, n)
	for i := range dirs {
		d := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		dirs[i] = d.Scale((2 + 2*rng.Float64()) / d.Norm() / float64(int(1)<<rng.Intn(3)))
	}
	return dirs
}

// BenchmarkM2LBatchTable times the production M2L form the way the far
// field runs it on grav-far-p8: a theta slab of 2 600 distinct rows (12 MB
// at p=8, far beyond L2, like the workload's 2 570) read in shuffled class
// order by 189-source V lists, so every translation fetches a cold
// rotation. ns/translation is the figure to hold against the traced
// expansion.m2l_ns.
func BenchmarkM2LBatchTable(b *testing.B) {
	const nDirs, nBatch, vList, nSrc = 2600, 64, 189, 512
	for _, p := range []int{4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			rng := rand.New(rand.NewSource(41))
			tb := buildTable(p, benchDirs(rng, nDirs), nil, 0)
			if tb.Rotations() < 2500 {
				b.Fatalf("table has %d theta rows, want >= 2500", tb.Rotations())
			}
			pool := make([]Expansion, nSrc)
			for i := range pool {
				pool[i] = randomExpansion(p, rng)
			}
			srcs := make([][]M2LSource, nBatch)
			classes := make([][]int32, nBatch)
			for bi := range srcs {
				for i := 0; i < vList; i++ {
					srcs[bi] = append(srcs[bi], M2LSource{M: pool[rng.Intn(nSrc)]})
					classes[bi] = append(classes[bi], int32(rng.Intn(nDirs)))
				}
			}
			w := NewWorkspace(p)
			l := NewExpansion(p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.M2LBatchTable(l, geom.Vec3{}, srcs[i%nBatch], classes[i%nBatch], tb)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vList), "ns/translation")
		})
	}
}
