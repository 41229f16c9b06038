package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"afmm/internal/distrib"
	"afmm/internal/expansion"
	"afmm/internal/geom"
	"afmm/internal/kernels"
	"afmm/internal/particle"
	"afmm/internal/sched"
	"afmm/internal/telemetry"
)

// accHash is the FNV-1a hash of the accelerations' float64 bits in input
// order — what "the same bits" means across solvers and commits.
func accHash(sys *particle.System) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, a := range sys.AccInInputOrder() {
		for _, v := range [3]float64{a.X, a.Y, a.Z} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestDirectKZeroKeepsParentBits: with the threshold forced to 0 the
// mechanism selects nothing, and the solve reproduces, bit for bit, the
// accelerations of the commit before the per-pair operator choice existed
// (Plummer N=1500 seed 7, p=6, S=16) — as re-recorded when M2M and L2L
// moved onto the translation kernel, when every cell's M2L pairs took the
// order theta ascending, then V index (theta-batched M2L), and when the
// near field began to evaluate each unordered pair once (the mutual order
// the tree fixes): the three changes of bits since, all in summation
// order or rounding only.
func TestDirectKZeroKeepsParentBits(t *testing.T) {
	sys := distrib.Plummer(1500, 1, 1, 7)
	s := NewSolver(sys, Config{P: 6, S: 16})
	s.Tree.SetDirectK(0)
	s.Solve()
	if sch := s.Tree.NearField(); sch.DirectPairs != 0 {
		t.Fatalf("K=0 selected %d pairs", sch.DirectPairs)
	}
	const parent uint64 = 0x9116fde841ca26a
	if h := accHash(sys); h != parent {
		t.Fatalf("K=0 accelerations hash %#x, parent commit %#x", h, parent)
	}
	// The same solver at its own threshold moves the bits — and only then.
	s.Tree.SetDirectK(DirectK(6))
	s.Solve()
	if s.Tree.NearField().DirectPairs == 0 || accHash(sys) == parent {
		t.Fatal("the default threshold selected nothing on this tree")
	}
}

// TestDirectPairsBitIdenticalAcrossPaths: with the predicate selecting a
// good share of the accepted pairs, every configuration of the step — CPU
// near field, the device walk, from-scratch lists, one worker — sums and
// translates the same pairs in the same order: accelerations are exactly
// equal, over steps that move bodies across the threshold.
func TestDirectPairsBitIdenticalAcrossPaths(t *testing.T) {
	base := distrib.Plummer(2500, 1, 1, 12)
	paths := []struct {
		name    string
		mut     func(cfg *Config)
		scratch bool // rebuild the lists from scratch on every solve
	}{
		{"cpu", func(cfg *Config) {}, false},
		{"vgpu", func(cfg *Config) { cfg.NumGPUs = 2 }, false},
		{"no-list-cache", func(cfg *Config) {}, true},
		{"one-worker", func(cfg *Config) { cfg.Pool = sched.NewPool(1) }, false},
	}
	var want [3]uint64
	for pi, pc := range paths {
		sys := base.Clone()
		rec := telemetry.New(telemetry.Options{Keep: true})
		cfg := Config{P: 6, S: 16, Pool: sched.NewPool(3), Rec: rec}
		pc.mut(&cfg)
		s := NewSolver(sys, cfg)
		s.Tree.Cfg.NoListCache = pc.scratch
		var direct [3]int64
		for step := range want {
			rec.StartStep(step)
			s.Solve()
			rec.EndStep()
			direct[step] = s.Tree.NearField().DirectPairs
			if h := accHash(sys); pi == 0 {
				want[step] = h
			} else if h != want[step] {
				t.Fatalf("%s step %d: hash %#x, %s has %#x", pc.name, step, h, paths[0].name, want[step])
			}
			for i := range sys.Pos {
				d := sys.Pos[i].Scale(0.02)
				sys.Pos[i] = sys.Pos[i].Add(geom.Vec3{X: d.Y, Y: -d.X, Z: d.Z * 0.5})
			}
			s.Refill()
		}
		ops := s.Tree.CountOps()
		if direct[0] == 0 || 10*direct[0] < ops.M2L {
			t.Fatalf("%s: only %d direct pairs beside %d translations", pc.name, direct[0], ops.M2L)
		}
		if direct[0] == direct[1] && direct[1] == direct[2] {
			t.Fatalf("%s: no pair crossed the threshold in three steps (%d direct)", pc.name, direct[0])
		}
		recs := rec.Steps()
		if recs[0].DirectPairs != direct[0] || recs[0].DirectInteractions == 0 {
			t.Fatalf("%s: step record reports %d direct pairs / %d interactions, schedule %d",
				pc.name, recs[0].DirectPairs, recs[0].DirectInteractions, direct[0])
		}
	}
}

// BenchmarkDirectBreakEven is the calibration behind DirectK: the table
// form of M2L over a θ slab too large for the caches (every translation
// fetches a cold rotation, as in a real down sweep) against the direct
// kernel on leaf pairs of 2–20 bodies, at widths 1 (gravity) and 4 (the
// Stokeslet's four harmonic columns against one Stokeslet pair). It
// reports ns per translation, ns per body pair and their ratio — the
// break-even n_t·n_s — for P2P as dispatched on this host (the packed body
// where it has AVX2) and for the scalar reference P2PScalar, which is what
// a host without AVX2 runs, and, at width 1, the K the gravity solver uses
// (Stokes uses none).
func BenchmarkDirectBreakEven(b *testing.B) {
	const nDirs, vList, nSrc, nLeaves = 2600, 189, 512, 4096
	for _, width := range []int{1, 4} {
		for _, p := range []int{4, 8, 12} {
			b.Run(fmt.Sprintf("width=%d/p=%d", width, p), func(b *testing.B) {
				rng := rand.New(rand.NewSource(41))
				dirs := make([]geom.Vec3, nDirs)
				pairs := make([]int64, nDirs)
				for i := range dirs {
					d := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
					dirs[i] = d.Scale((2 + 2*rng.Float64()) / d.Norm() / float64(int(1)<<rng.Intn(3)))
					pairs[i] = 1
				}
				tb := expansion.NewM2LTable(p)
				tb.BuildRotRange(0, tb.Plan(dirs, pairs, 0))
				pool := make([]expansion.Expansion, nSrc)
				for i := range pool {
					pool[i] = expansion.NewExpansion(p)
					for c := range pool[i].C {
						pool[i].C[c] = complex(rng.NormFloat64(), rng.NormFloat64())
					}
				}
				// Shuffled batches prepared outside the timed regions.
				const nBatch = 64
				type leafPair struct{ t0, nt, s0, ns int }
				classes := make([][]int32, nBatch)
				srcs1 := make([][]expansion.M2LSource, nBatch)
				srcs4 := make([][]expansion.M2LSource4, nBatch)
				leafPairs := make([][]leafPair, nBatch)
				for bi := 0; bi < nBatch; bi++ {
					for i := 0; i < vList; i++ {
						m := pool[rng.Intn(nSrc)]
						classes[bi] = append(classes[bi], int32(rng.Intn(nDirs)))
						srcs1[bi] = append(srcs1[bi], expansion.M2LSource{M: m})
						srcs4[bi] = append(srcs4[bi], expansion.M2LSource4{M: [4]expansion.Expansion{m, m, m, m}})
						// Leaves of 2–20 bodies scattered over one large body array.
						leafPairs[bi] = append(leafPairs[bi], leafPair{
							t0: rng.Intn(nLeaves) * 20, nt: 2 + rng.Intn(19),
							s0: rng.Intn(nLeaves) * 20, ns: 2 + rng.Intn(19),
						})
					}
				}
				w := expansion.NewWorkspace(p)
				var l4 [4]expansion.Expansion
				for c := range l4 {
					l4[c] = expansion.NewExpansion(p)
				}
				m2l := func(bi int) {
					if width == 1 {
						w.M2LBatchTable(l4[0], geom.Vec3{}, srcs1[bi], classes[bi], tb)
					} else {
						w.M2LBatchTable4(&l4, srcs4[bi], classes[bi], tb)
					}
				}

				pos := make([]geom.Vec3, nLeaves*20)
				mass := make([]float64, len(pos))
				aux := make([]geom.Vec3, len(pos))
				for i := range pos {
					pos[i] = geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
					mass[i] = 1
					aux[i] = geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
				}
				phi := make([]float64, len(pos))
				acc := make([]geom.Vec3, len(pos))
				grav := kernels.Gravity{G: 1}
				stk := kernels.Stokeslet{Mu: 1, Eps: 1e-3}
				p2p := func(bi int, scalar bool) (bodyPairs int64) {
					for _, lp := range leafPairs[bi] {
						t1, s1 := lp.t0+lp.nt, lp.s0+lp.ns
						xt, vel, ys := pos[lp.t0:t1], acc[lp.t0:t1], pos[lp.s0:s1]
						switch {
						case width == 1 && scalar:
							grav.P2PScalar(xt, phi[lp.t0:t1], vel, ys, mass[lp.s0:s1])
						case width == 1:
							grav.P2P(xt, phi[lp.t0:t1], vel, ys, mass[lp.s0:s1])
						case scalar:
							stk.P2PScalar(xt, vel, ys, aux[lp.s0:s1])
						default:
							stk.P2P(xt, vel, ys, aux[lp.s0:s1])
						}
						bodyPairs += int64(lp.nt * lp.ns)
					}
					return bodyPairs
				}

				var m2lNs, p2pNs, scalarNs, bodyPairs int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t0 := b.Elapsed()
					m2l(i % nBatch)
					t1 := b.Elapsed()
					bodyPairs += p2p(i%nBatch, false)
					t2 := b.Elapsed()
					p2p(i%nBatch, true)
					m2lNs += int64(t1 - t0)
					p2pNs += int64(t2 - t1)
					scalarNs += int64(b.Elapsed() - t2)
				}
				perM2L := float64(m2lNs) / float64(b.N*vList)
				perPair := float64(p2pNs) / float64(bodyPairs)
				perScalar := float64(scalarNs) / float64(bodyPairs)
				b.ReportMetric(perM2L, "ns/translation")
				b.ReportMetric(perPair, "ns/bodypair")
				b.ReportMetric(perM2L/perPair, "breakeven")
				b.ReportMetric(perScalar, "ns/bodypair-scalar")
				b.ReportMetric(perM2L/perScalar, "breakeven-scalar")
				if width == 1 {
					b.ReportMetric(float64(DirectK(p)), "K")
				}
			})
		}
	}
}
