package expansion

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"afmm/internal/distrib"
	"afmm/internal/geom"
	"afmm/internal/octree"
	"afmm/internal/particle"
	"afmm/internal/sphharm"
)

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
			var froms []geom.Vec3
			for _, s := range srcs {
				froms = append(froms, s.From)
			}
			for _, rotCap := range []int{0, 3} {
				tb, classes := tableFor(p, to, froms, nil, rotCap)
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

// FuzzM2LTable: for arbitrary direction sets, orders and theta budgets
// every table form equals the uncached reference bit for bit
// (checkForms), under both dispatch states.
func FuzzM2LTable(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(6), uint8(0))
	f.Add(int64(2), uint8(7), uint8(20), uint8(3))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1))
	f.Add(int64(4), uint8(0), uint8(9), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, order, ndirs, rotCap uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := m2lCase{name: "fuzz", p: int(order % 10), spill: int(rotCap % 8), seed: seed}
		c.to = geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
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
		for i := 0; i < 1+rng.Intn(30); i++ {
			c.froms = append(c.froms, c.to.Add(dirs[rng.Intn(len(dirs))]))
		}
		refs := map[string][]uint64{}
		for _, packed := range dispatchStates(t) {
			packedOK = packed
			checkForms(t, c, refs)
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
