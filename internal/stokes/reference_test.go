package stokes

import (
	"fmt"
	"math"
	"testing"

	"afmm/internal/core/neartest"
	"afmm/internal/distrib"
	"afmm/internal/expansion"
	"afmm/internal/fault"
	"afmm/internal/geom"
	"afmm/internal/kernels"
	"afmm/internal/octree"
	"afmm/internal/particle"
	"afmm/internal/sched"
	"afmm/internal/sphharm"
	"afmm/internal/vgpu"
)

// serialStep is core's test reference over the Stokeslet field: one whole
// step on the calling goroutine — the near field in the tree's order
// (mutualNear), up sweep from the deepest level, down sweep from the root
// one cell at a time, leaf evaluation — with no dag, no sched, no M2L
// table (s never Solves; its down sweep is referenceDown) and none of the
// field's chunk code.
func serialStep(s *Solver) {
	f := s.Field.(*Field)
	sweep(s, func(w *expansion.Workspace, ni int32) { f.Up(w, ni, nil) },
		func(w *expansion.Workspace, ni int32) { referenceDown(w, f, ni) })
}

// referenceDown is the Stokeslet down sweep of cell ni without the M2L
// table: the parent's four locals shifted in, then, pass by pass, the
// cell's translated V pairs in V-list order through the uncached M2LBatch.
func referenceDown(w *expansion.Workspace, f *Field, ni int32) {
	f.L2L(w, ni)
	t := f.Tree
	n := &t.Nodes[ni]
	for k := 0; k < passes; k++ {
		var srcs []expansion.M2LSource
		for j, vi := range n.V {
			if !t.DirectMask(ni)[j] {
				srcs = append(srcs, expansion.M2LSource{M: f.Mpole(k, vi), From: t.Nodes[vi].Box.Center})
			}
		}
		w.M2LBatch(f.Local(k, ni), n.Box.Center, srcs)
	}
}

// sweep runs the step serially with up and down as the sweep operators.
func sweep(s *Solver, up, down func(w *expansion.Workspace, ni int32)) {
	t, f := s.Tree, s.Field
	t.BuildLists()
	sch := t.NearField()
	s.Sys.ResetAccumulators()
	f.Reset()
	w := expansion.NewWorkspace(s.Cfg.P)
	mutualNear(s.Sys, t, sch, f.(*Field).Kernel)
	if s.Cfg.SkipFarField {
		return // no sweeps, no leaf evaluation: the graph has no far nodes
	}
	levels := t.LevelOrder()
	for lv := len(levels) - 1; lv >= 0; lv-- {
		for _, ni := range levels[lv] {
			up(w, ni)
		}
	}
	for _, nodes := range levels {
		for _, ni := range nodes {
			down(w, ni)
		}
	}
	for _, ni := range t.VisibleLeaves() {
		f.L2P(w, ni)
	}
}

// mutualNear is the Stokeslet near field in the order the tree fixes
// (neartest.Mutual, core's reference) from the scalar kernels: P2PScalar
// one-way, and P2PPairScalar, its targets' half discarded, for the
// reactions.
func mutualNear(sys *particle.System, t *octree.Tree, sch *octree.NearSchedule, k kernels.Stokeslet) {
	bodies := func(ni int32) (int32, int32) { return t.Nodes[ni].Start, t.Nodes[ni].End }
	neartest.Mutual(t, sch, func(a, b int32) {
		lo, hi := bodies(a)
		slo, shi := bodies(b)
		k.P2PScalar(sys.Pos[lo:hi], sys.Acc[lo:hi], sys.Pos[slo:shi], sys.Aux[slo:shi])
	}, func(a, b int32, slots []geom.Vec3) {
		lo, hi := bodies(a)
		blo, bhi := bodies(b)
		k.P2PPairScalar(sys.Pos[lo:hi], sys.Aux[lo:hi], make([]geom.Vec3, hi-lo), sys.Pos[blo:bhi], sys.Aux[blo:bhi], slots)
	}, func(b int32, slots []geom.Vec3) {
		lo, _ := bodies(b)
		for j, v := range slots {
			a := &sys.Acc[int(lo)+j]
			a.X += v.X
			a.Y += v.Y
			a.Z += v.Z
		}
	})
}

// perPairStep is serialStep with the operators of the paper's task
// recursion: per child one direct O(p^4) M2M, per cell one direct L2L and
// per translated V pair one direct M2L, pass by pass — the reference the
// four-column translation kernel is compared with, to rounding.
func perPairStep(s *Solver) {
	t, f := s.Tree, s.Field.(*Field)
	up := func(w *expansion.Workspace, ni int32) {
		n := &t.Nodes[ni]
		if n.IsVisibleLeaf() {
			f.Up(w, ni, nil) // P2M
			return
		}
		for _, ci := range n.Children {
			if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
				for k := 0; k < passes; k++ {
					directM2M(f.Mpole(k, ni), n.Box.Center, f.Mpole(k, ci), t.Nodes[ci].Box.Center)
				}
			}
		}
	}
	sweep(s, up, func(w *expansion.Workspace, ni int32) {
		n := &t.Nodes[ni]
		if pi := n.Parent; pi != octree.NilNode {
			for k := 0; k < passes; k++ {
				directL2L(f.Local(k, ni), n.Box.Center, f.Local(k, pi), t.Nodes[pi].Box.Center)
			}
		}
		direct := t.DirectMask(ni)
		for k := 0; k < passes; k++ {
			for j, vi := range n.V {
				if direct[j] {
					continue // summed by the near-field schedule
				}
				w.M2L(f.Local(k, ni), n.Box.Center, f.Mpole(k, vi), t.Nodes[vi].Box.Center)
			}
		}
	})
}

// directM2M and directL2L are the O(p^4) M2M and L2L the tree ran before
// both went through the translation kernel (a copy of core's test
// reference; internal/expansion keeps the same forms as its oracle).
func directM2M(m expansion.Expansion, to geom.Vec3, o expansion.Expansion, from geom.Vec3) {
	p, t := m.P, sphharm.NewTables(m.P)
	reg := make([]complex128, sphharm.PackedLen(p))
	expansion.Regular(p, from.Sub(to), reg)
	for j := 0; j <= p; j++ {
		for k := 0; k <= j; k++ {
			var acc complex128
			for n := 0; n <= j; n++ {
				for mm := max(-n, k-(j-n)); mm <= min(n, k+(j-n)); mm++ {
					acc += packed(o.C, j-n, k-mm) * sphharm.IPow(abs(k)-abs(mm)-abs(k-mm)) *
						complex(t.Anm(n, mm)*t.Anm(j-n, k-mm), 0) * packed(reg, n, -mm)
				}
			}
			m.C[sphharm.Idx(j, k)] += acc / complex(t.Anm(j, k), 0)
		}
	}
}

func directL2L(l expansion.Expansion, to geom.Vec3, o expansion.Expansion, from geom.Vec3) {
	p, t := l.P, sphharm.NewTables(l.P)
	reg := make([]complex128, sphharm.PackedLen(p))
	expansion.Regular(p, from.Sub(to), reg)
	for j := 0; j <= p; j++ {
		for k := 0; k <= j; k++ {
			var acc complex128
			for n := j; n <= p; n++ {
				neg := float64(1 - 2*((n+j)%2))
				for mm := max(-n, k-(n-j)); mm <= min(n, k+(n-j)); mm++ {
					acc += packed(o.C, n, mm) * sphharm.IPow(abs(mm)-abs(mm-k)-abs(k)) *
						complex(t.Anm(n-j, mm-k)*t.Anm(j, k)*neg/t.Anm(n, mm), 0) * packed(reg, n-j, mm-k)
				}
			}
			l.C[sphharm.Idx(j, k)] += acc
		}
	}
}

// packed returns coefficient (n, m) of a packed Hermitian expansion.
func packed(e []complex128, n, m int) complex128 {
	if m >= 0 {
		return e[sphharm.Idx(n, m)]
	}
	c := e[sphharm.Idx(n, -m)]
	return complex(real(c), -imag(c))
}

func abs(x int) int { return max(x, -x) }

// assertBitIdentical compares velocities (and the never-written
// potentials) bit for bit.
func assertBitIdentical(t *testing.T, got, want *Solver) {
	t.Helper()
	phiA, phiB := got.Sys.PhiInInputOrder(), want.Sys.PhiInInputOrder()
	va, vb := got.Sys.AccInInputOrder(), want.Sys.AccInInputOrder()
	for i := range va {
		for c, v := range [4]float64{va[i].X, va[i].Y, va[i].Z, phiA[i]} {
			if r := [4]float64{vb[i].X, vb[i].Y, vb[i].Z, phiB[i]}[c]; math.Float64bits(v) != math.Float64bits(r) {
				t.Fatalf("not bit-identical at body %d: %v / %x vs %v / %x", i, va[i], phiA[i], vb[i], phiB[i])
			}
		}
	}
}

// graphCases are the device sets and phase subsets the step graph is held
// to the serial reference on, each on every pool size (Stokes has no
// SkipNearField).
var graphCases = []struct {
	name string
	mut  func(cfg *Config)
}{
	{"cpu-only", func(cfg *Config) {}},
	{"one-gpu", func(cfg *Config) { cfg.NumGPUs = 1 }},
	{"gpus", func(cfg *Config) { cfg.NumGPUs = 2 }},
	{"near-only", func(cfg *Config) { cfg.SkipFarField = true }},
}

// TestGraphMatchesSerialReference: core's matrix over the Stokeslet field.
// Every case on 1, 2 and 4 workers solves through the step graph and holds
// the velocities to the serial reference, bit for bit, on the fresh tree
// and again after a move + Refill + EnforceS.
func TestGraphMatchesSerialReference(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			for _, v := range graphCases {
				t.Run(v.name, func(t *testing.T) {
					sys := distrib.Plummer(900, 1, 1, 37)
					randomForces(sys, 41)
					cfg := Config{P: 6, S: 24, Kernel: kernels.Stokeslet{Mu: 0.9, Eps: 1e-3}, Pool: sched.NewPool(w)}
					v.mut(&cfg)
					s, ref := NewSolver(sys, cfg), NewSolver(sys.Clone(), cfg)
					if st := s.Solve(); !st.Host.Overlapped {
						t.Fatal("solve did not report Overlapped")
					}
					serialStep(ref)
					assertBitIdentical(t, s, ref)
					for _, x := range []*Solver{s, ref} {
						for i := range x.Sys.Pos {
							x.Sys.Pos[i] = x.Sys.Pos[i].Add(x.Sys.Pos[i].Scale(0.04))
						}
						x.Refill()
						x.EnforceS()
					}
					s.Solve()
					serialStep(ref)
					assertBitIdentical(t, s, ref)
				})
			}
		})
	}
	// A fail-stop device loss moves the clock, never the rows: the
	// fallback is a virtual charge.
	t.Run("failstop", func(t *testing.T) {
		sch, err := fault.Parse("gpu0:failstop@step1")
		if err != nil {
			t.Fatal(err)
		}
		sys := distrib.UniformCube(2500, 10, 42)
		randomForces(sys, 43)
		cfg := Config{P: 4, S: 32, NumGPUs: 2, Pool: sched.NewPool(4), Watchdog: vgpu.WatchdogConfig{ChunkRows: 4}}
		ref := NewSolver(sys.Clone(), cfg)
		cfg.Faults = fault.NewInjector(sch)
		s := NewSolver(sys, cfg)
		for step := 0; step < 3; step++ {
			if _, err := s.SolveChecked(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			serialStep(ref)
			assertBitIdentical(t, s, ref)
		}
		if rep := s.Cluster.LastReport(); rep.DeadDevices != 1 {
			t.Fatalf("want 1 dead device, got %d", rep.DeadDevices)
		}
	})
}

// TestKernelMatchesPerPairDirect: the step graph's four-column
// translations — M2M, table-driven M2L and L2L, all through the one
// translation kernel — against the per-pair direct operators of the
// paper's task recursion.
func TestKernelMatchesPerPairDirect(t *testing.T) {
	k := kernels.Stokeslet{Mu: 0.9, Eps: 1e-3}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"direct", Config{P: 8, S: 16, Kernel: k}},
		{"gpus", Config{P: 6, S: 24, Kernel: k, NumGPUs: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := distrib.Plummer(700, 1, 1, 31)
			randomForces(sys, 32)
			a, b := NewSolver(sys, tc.cfg), NewSolver(sys.Clone(), tc.cfg)
			a.Solve()
			perPairStep(b)
			va, vb := a.Sys.AccInInputOrder(), b.Sys.AccInInputOrder()
			for i := range va {
				if d := va[i].Sub(vb[i]).Norm(); d > 1e-8*(1+vb[i].Norm()) {
					t.Fatalf("disagree at body %d: %v vs %v (|d|=%g)", i, va[i], vb[i], d)
				}
			}
			// Both must also stay near the direct sum (storage order), not
			// merely each other.
			if e := velErr(sys.Acc, DirectVelocities(sys, k)); e > 5e-3 {
				t.Fatalf("error vs direct: %g", e)
			}
		})
	}
}

// TestSolveAllocationCeiling is the Stokes allocs/step gate (see
// core.TestSolveAllocationCeiling): a warmed Solve allocates per-step
// structures only — the virtual-CPU replay's graph, chunk closures, the
// step graph — never per translation, V list or body. The ceiling is 1.5x
// the measured count (2016 at this size; with a far-field chain per
// harmonic pass the graph made 2536).
func TestSolveAllocationCeiling(t *testing.T) {
	const ceiling = 3000
	sys := distrib.UniformCube(2000, 1, 3)
	randomForces(sys, 5)
	s := NewSolver(sys, Config{P: 4, S: 32, Pool: sched.NewPool(2)})
	s.Solve()
	s.Solve()
	if got := testing.AllocsPerRun(5, func() { s.Solve() }); got > ceiling {
		t.Errorf("warmed Solve makes %.0f allocations, ceiling %d", got, ceiling)
	} else {
		t.Logf("%.0f allocations per warmed Solve", got)
	}
}
