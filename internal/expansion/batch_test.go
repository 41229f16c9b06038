package expansion

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"afmm/internal/geom"
	"afmm/internal/sphharm"
)

func randomExpansion(p int, rng *rand.Rand) Expansion {
	e := NewExpansion(p)
	for i := range e.C {
		e.C[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	// m = 0 coefficients of a real potential are real.
	for n := 0; n <= p; n++ {
		i := sphharm.Idx(n, 0)
		e.C[i] = complex(real(e.C[i]), 0)
	}
	return e
}

func maxRelDiff(a, b []complex128) float64 {
	var worst float64
	for i := range a {
		d := cmplx.Abs(a[i]-b[i]) / (1 + cmplx.Abs(a[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}

func TestM2LBatchMatchesRotated(t *testing.T) {
	// A batch over repeated and fresh directions must reproduce the
	// per-pair rotated operator bit-for-bit modulo accumulation order:
	// identical inputs flow through identical arithmetic, the cache only
	// removes redundant setup recomputation.
	rng := rand.New(rand.NewSource(5))
	for _, p := range []int{2, 4, 8, 12} {
		w := NewWorkspace(p)
		to := geom.Vec3{X: 0.1, Y: -0.2, Z: 0.05}
		var srcs []M2LSource
		// Repeat a small direction set many times (the uniform-tree regime
		// the cache targets) plus some unique directions.
		dirs := []geom.Vec3{
			{X: 3, Y: 0, Z: 0}, {X: 0, Y: 3, Z: 1.5}, {X: -3, Y: 3, Z: -3},
		}
		for rep := 0; rep < 4; rep++ {
			for _, d := range dirs {
				srcs = append(srcs, M2LSource{M: randomExpansion(p, rng), From: to.Add(d)})
			}
		}
		for i := 0; i < 5; i++ {
			srcs = append(srcs, M2LSource{
				M:    randomExpansion(p, rng),
				From: to.Add(geom.Vec3{X: 4 + rng.Float64(), Y: -3 + rng.Float64(), Z: 2 + rng.Float64()}),
			})
		}

		got := NewExpansion(p)
		w.M2LBatch(got, to, srcs)

		want := NewExpansion(p)
		wRef := NewWorkspace(p)
		for _, s := range srcs {
			wRef.M2LRotated(want, to, s.M, s.From)
		}
		if d := maxRelDiff(got.C, want.C); d > 1e-13 {
			t.Errorf("p=%d: batch deviates from per-pair rotated M2L by %g", p, d)
		}
	}
}

func TestM2LBatchMatchesDirect(t *testing.T) {
	// Against the direct O(p^4) operator the rotated batch agrees to
	// rounding (same analytic transform, different factorization).
	rng := rand.New(rand.NewSource(9))
	p := 8
	w := NewWorkspace(p)
	to := geom.Vec3{}
	var srcs []M2LSource
	for i := 0; i < 10; i++ {
		srcs = append(srcs, M2LSource{
			M:    randomExpansion(p, rng),
			From: geom.Vec3{X: 3 + rng.Float64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()},
		})
	}
	got := NewExpansion(p)
	w.M2LBatch(got, to, srcs)
	want := NewExpansion(p)
	wRef := NewWorkspace(p)
	for _, s := range srcs {
		wRef.M2L(want, to, s.M, s.From)
	}
	if d := maxRelDiff(got.C, want.C); d > 1e-9 {
		t.Errorf("batch deviates from direct M2L by %g", d)
	}
}

// TestM2LBatchAllocationFree: the reference form keeps no cache and
// computes every setup into the workspace scratch, so a warmed workspace
// translates without allocating — repeated directions and fresh ones.
func TestM2LBatchAllocationFree(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		const p = 6
		w := NewWorkspace(p)
		to := geom.Vec3{}
		var srcs []M2LSource
		for i := 0; i < 40; i++ {
			srcs = append(srcs, M2LSource{
				M:    randomExpansion(p, rng),
				From: geom.Vec3{X: 3 + float64(i%4), Y: 1 + rng.Float64(), Z: float64(i%3) - 1},
			})
		}
		l := NewExpansion(p)
		if a := testing.AllocsPerRun(10, func() { w.M2LBatch(l, to, srcs) }); a != 0 {
			t.Fatalf("M2LBatch allocates %v times per call, want 0", a)
		}
		// The theta-batched form, once its pair scratch holds the batch.
		dirs := thetaQuads(benchDirs(rng, 20))
		tb := buildTable(p, dirs, nil, 0)
		slab := make([]complex128, 8*sphharm.PackedLen(p))
		pairs := w.Pairs(300)
		for i := 0; i < 300; i++ {
			pairs = append(pairs, M2LPair{L: int32(rng.Intn(8)), M: int32(rng.Intn(8)), Class: int32(rng.Intn(len(dirs)))})
		}
		w.M2LBatchTheta(slab, slab, pairs, tb)
		if a := testing.AllocsPerRun(5, func() { w.M2LBatchTheta(slab, slab, pairs, tb) }); a != 0 {
			t.Fatalf("M2LBatchTheta allocates %v times per call, want 0", a)
		}
		// Reuse leaves no state behind: a used workspace equals a fresh one.
		used, fresh := NewExpansion(p), NewExpansion(p)
		w.M2LBatch(used, to, srcs)
		NewWorkspace(p).M2LBatch(fresh, to, srcs)
		for i := range used.C {
			if used.C[i] != fresh.C[i] {
				t.Fatalf("coefficient %d: used workspace %v != fresh %v", i, used.C[i], fresh.C[i])
			}
		}
	})
}

func BenchmarkM2LPerPairRotated(b *testing.B) {
	benchM2L(b, func(w *Workspace, l Expansion, to geom.Vec3, srcs []M2LSource) {
		for _, s := range srcs {
			w.M2LRotated(l, to, s.M, s.From)
		}
	})
}

func BenchmarkM2LPerPairDirect(b *testing.B) {
	benchM2L(b, func(w *Workspace, l Expansion, to geom.Vec3, srcs []M2LSource) {
		for _, s := range srcs {
			w.M2L(l, to, s.M, s.From)
		}
	})
}

func BenchmarkM2LBatch(b *testing.B) {
	benchM2L(b, func(w *Workspace, l Expansion, to geom.Vec3, srcs []M2LSource) {
		w.M2LBatch(l, to, srcs)
	})
}

// benchM2L applies a V-list-like batch: 27 sources drawn from a repeating
// direction set, order 8 (the acceptance configuration).
func benchM2L(b *testing.B, apply func(*Workspace, Expansion, geom.Vec3, []M2LSource)) {
	rng := rand.New(rand.NewSource(1))
	const p = 8
	w := NewWorkspace(p)
	to := geom.Vec3{}
	var srcs []M2LSource
	for i := 0; i < 27; i++ {
		d := geom.Vec3{
			X: float64(i%3-1) * 3,
			Y: float64((i/3)%3-1) * 3,
			Z: math.Floor(float64(i/9)-1) * 3,
		}
		if d.Norm() == 0 {
			d = geom.Vec3{X: 3, Y: 3, Z: 3}
		}
		srcs = append(srcs, M2LSource{M: randomExpansion(p, rng), From: to.Add(d)})
	}
	l := NewExpansion(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(w, l, to, srcs)
	}
}
