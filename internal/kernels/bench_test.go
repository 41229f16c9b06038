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
// P2PScalar, pair is P2PPair as dispatched, which covers both directions,
// and react is P2PReact, its reaction half alone — and
// reports ns per directed body pair. 8x10 is the short row of a
// direct-summed accepted pair (core.DirectK), 64x64 and 256x256 are leaf
// rows at S = 64 and 256.
func BenchmarkP2P(b *testing.B) {
	shapes := []struct {
		name   string
		nt, ns int
	}{{"8x10", 8, 10}, {"16x16", 16, 16}, {"40x40", 40, 40}, {"64x64", 64, 64}, {"256x256", 256, 256}}
	g := Gravity{G: 1, Softening: 0.01}
	s := Stokeslet{Mu: 1, Eps: 1e-3}
	for _, field := range []string{"gravity", "stokeslet"} {
		for _, kernel := range []string{"packed", "scalar", "pair", "react"} {
			for _, sh := range shapes {
				xt, _, _ := randBodies(sh.nt, 1)
				ys, ms, fs := randBodies(sh.ns, 2)
				phi := make([]float64, sh.nt)
				acc := make([]geom.Vec3, sh.nt)
				mt := make([]float64, sh.nt)
				pair := []GravityPair{{Pos: ys, Mass: ms, React: make([][4]float64, sh.ns)}}
				spair := []StokesletPair{{Pos: ys, Force: fs, React: make([]geom.Vec3, sh.ns)}}
				ft := make([]geom.Vec3, sh.nt)
				var lanes PairLanes
				directed := sh.nt * sh.ns
				var call func()
				switch field + "/" + kernel {
				case "gravity/pair":
					call = func() { g.P2PPair(xt, mt, phi, acc, pair, &lanes) }
					directed *= 2
				case "gravity/react":
					call = func() { g.P2PReact(xt, mt, pair, &lanes) }
				case "gravity/packed":
					call = func() { g.P2P(xt, phi, acc, ys, ms) }
				case "gravity/scalar":
					call = func() { g.P2PScalar(xt, phi, acc, ys, ms) }
				case "stokeslet/pair":
					call = func() { s.P2PPair(xt, ft, acc, spair, &lanes) }
					directed *= 2
				case "stokeslet/react":
					call = func() { s.P2PReact(xt, ft, spair, &lanes) }
				case "stokeslet/packed":
					call = func() { s.P2P(xt, acc, ys, fs) }
				default:
					call = func() { s.P2PScalar(xt, acc, ys, fs) }
				}
				b.Run(field+"/"+kernel+"/"+sh.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						call()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(directed), "ns/pair")
				})
			}
		}
	}
}

// BenchmarkNearFieldCSR sweeps the near field of a Plummer tree through
// its CSR schedule and reports ns per directed body pair: row makes one
// P2PRow call per row over the row's spans, as the Stokeslet's rows do;
// per-span makes one P2P call per (target leaf, source leaf) entry; pair
// is gravity's chunked mutual form — per chunk, each row's own leaf
// through P2PRow and its upper partners through one P2PPair call into the
// chunk's reaction buffer, then every leaf's fold — on the same tree.
func BenchmarkNearFieldCSR(b *testing.B) {
	sys := distrib.Plummer(20000, 1, 1, 42)
	t := octree.Build(sys, octree.Config{S: 48})
	t.BuildLists()
	k := Gravity{G: 1, Softening: 0.01}
	sch := t.NearField()
	target := func(r int) ([]geom.Vec3, []float64, []geom.Vec3) {
		tn := &t.Nodes[sch.Leaves[r]]
		return sys.Pos[tn.Start:tn.End], sys.Phi[tn.Start:tn.End], sys.Acc[tn.Start:tn.End]
	}
	pairs := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sch.Total()), "ns/pair")
	}
	b.Run("row", func(b *testing.B) {
		var spans []GravitySpan
		for i := 0; i < b.N; i++ {
			for r := 0; r < sch.Rows(); r++ {
				spans = spans[:0]
				for j := sch.RowPtr[r]; j < sch.RowPtr[r+1]; j++ {
					lo, hi := sch.SrcStart[j], sch.SrcEnd[j]
					spans = append(spans, GravitySpan{Pos: sys.Pos[lo:hi], Mass: sys.Mass[lo:hi]})
				}
				xt, pot, acc := target(r)
				k.P2PRow(xt, pot, acc, spans)
			}
		}
		pairs(b)
	})
	b.Run("pair", func(b *testing.B) {
		var react [octree.NearChunks][][4]float64
		for c := range react {
			react[c] = make([][4]float64, sch.ReactLen[c])
		}
		var lanes PairLanes
		var ups []GravityPair
		for i := 0; i < b.N; i++ {
			for c := range octree.NearChunks {
				clear(react[c])
				lo, hi := sch.Chunk(c)
				for r := lo; r < hi; r++ {
					xt, pot, acc := target(r)
					tn := &t.Nodes[sch.Leaves[r]]
					mt := sys.Mass[tn.Start:tn.End]
					k.P2PRow(xt, pot, acc, []GravitySpan{{Pos: xt, Mass: mt}})
					ups = ups[:0]
					for j := sch.Upper[r] + 1; j < sch.RowPtr[r+1]; j++ {
						lo, hi := sch.SrcStart[j], sch.SrcEnd[j]
						ups = append(ups, GravityPair{Pos: sys.Pos[lo:hi], Mass: sys.Mass[lo:hi], React: react[c][sch.Slot(j, c):][:hi-lo]})
					}
					k.P2PPair(xt, mt, pot, acc, ups, &lanes)
				}
			}
			for r := 0; r < sch.Rows(); r++ {
				_, pot, acc := target(r)
				chunks, offs := sch.Fold(r)
				for n, c := range chunks {
					for j, v := range react[c][offs[n]:][:len(pot)] {
						pot[j] += v[0]
						acc[j] = acc[j].Add(geom.Vec3{X: v[1], Y: v[2], Z: v[3]})
					}
				}
			}
		}
		pairs(b)
	})
	b.Run("per-span", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < sch.Rows(); r++ {
				xt, pot, acc := target(r)
				for j := sch.RowPtr[r]; j < sch.RowPtr[r+1]; j++ {
					lo, hi := sch.SrcStart[j], sch.SrcEnd[j]
					k.P2P(xt, pot, acc, sys.Pos[lo:hi], sys.Mass[lo:hi])
				}
			}
		}
		pairs(b)
	})
}
