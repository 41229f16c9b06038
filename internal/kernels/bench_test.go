package kernels

import (
	"math/rand"
	"testing"

	"afmm/internal/distrib"
	"afmm/internal/geom"
	"afmm/internal/octree"
)

func randBodies(n int, seed int64) ([]geom.Vec3, []float64, []geom.Vec3) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]geom.Vec3, n)
	mass := make([]float64, n)
	f := make([]geom.Vec3, n)
	for i := range pos {
		pos[i] = geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		mass[i] = 1
		f[i] = geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
	}
	return pos, mass, f
}

// BenchmarkP2P times one P2P call of nt targets against ns sources —
// packed is P2P as dispatched on this host, scalar is the reference
// P2PScalar — and reports ns per body pair. 8x10 is the short row of a
// direct-summed accepted pair (core.DirectK), 64x64 and 256x256 are leaf
// rows at S = 64 and 256.
func BenchmarkP2P(b *testing.B) {
	shapes := []struct {
		name   string
		nt, ns int
	}{{"8x10", 8, 10}, {"16x16", 16, 16}, {"64x64", 64, 64}, {"256x256", 256, 256}}
	g := Gravity{G: 1, Softening: 0.01}
	s := Stokeslet{Mu: 1, Eps: 1e-3}
	for _, field := range []string{"gravity", "stokeslet"} {
		for _, kernel := range []string{"packed", "scalar"} {
			for _, sh := range shapes {
				xt, _, _ := randBodies(sh.nt, 1)
				ys, ms, fs := randBodies(sh.ns, 2)
				phi := make([]float64, sh.nt)
				acc := make([]geom.Vec3, sh.nt)
				var call func()
				switch field + "/" + kernel {
				case "gravity/packed":
					call = func() { g.P2P(xt, phi, acc, ys, ms) }
				case "gravity/scalar":
					call = func() { g.P2PScalar(xt, phi, acc, ys, ms) }
				case "stokeslet/packed":
					call = func() { s.P2P(xt, acc, ys, fs) }
				default:
					call = func() { s.P2PScalar(xt, acc, ys, fs) }
				}
				b.Run(field+"/"+kernel+"/"+sh.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						call()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sh.nt*sh.ns), "ns/pair")
				})
			}
		}
	}
}

// nearFieldTree builds a Plummer decomposition with lists for the two
// near-field sweep benchmarks below.
func nearFieldTree(b *testing.B) *octree.Tree {
	b.Helper()
	sys := distrib.Plummer(20000, 1, 1, 42)
	t := octree.Build(sys, octree.Config{S: 48})
	t.BuildLists()
	return t
}

// BenchmarkNearFieldPerLeaf sweeps the near field the pre-schedule way:
// per-target U-list chasing, re-indirecting each source leaf's bodies
// through the tree for every target that references it.
func BenchmarkNearFieldPerLeaf(b *testing.B) {
	t := nearFieldTree(b)
	sys := t.Sys
	k := Gravity{G: 1, Softening: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ni := range t.VisibleLeaves() {
			tn := &t.Nodes[ni]
			xt := sys.Pos[tn.Start:tn.End]
			pot := sys.Phi[tn.Start:tn.End]
			acc := sys.Acc[tn.Start:tn.End]
			for _, si := range tn.U {
				sn := &t.Nodes[si]
				k.P2P(xt, pot, acc, sys.Pos[sn.Start:sn.End], sys.Mass[sn.Start:sn.End])
			}
		}
	}
	b.ReportMetric(float64(t.CountOps().P2P)*float64(b.N)/b.Elapsed().Seconds()/1e9,
		"Ginteractions/s")
}

// BenchmarkNearFieldCSR sweeps the same near field through the cached CSR
// schedule's source spans (the solver's default path): no per-source Node
// indirection and no copying.
func BenchmarkNearFieldCSR(b *testing.B) {
	t := nearFieldTree(b)
	sys := t.Sys
	k := Gravity{G: 1, Softening: 0.01}
	sch := t.NearField()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < sch.Rows(); r++ {
			tn := &t.Nodes[sch.Leaves[r]]
			xt := sys.Pos[tn.Start:tn.End]
			pot := sys.Phi[tn.Start:tn.End]
			acc := sys.Acc[tn.Start:tn.End]
			for j := sch.RowPtr[r]; j < sch.RowPtr[r+1]; j++ {
				k.P2P(xt, pot, acc,
					sys.Pos[sch.SrcStart[j]:sch.SrcEnd[j]],
					sys.Mass[sch.SrcStart[j]:sch.SrcEnd[j]])
			}
		}
	}
	b.ReportMetric(float64(sch.Total())*float64(b.N)/b.Elapsed().Seconds()/1e9,
		"Ginteractions/s")
}
