package kernels

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"afmm/internal/geom"
)

// spanCut describes how a row test cuts a problem's sources into spans:
// span i covers sources cuts[i]:cuts[i+1] (equal bounds make an empty
// span), and span ghost (-1: none) is a copy in arrays of its own, as a
// dmem node holds a remote leaf. Every other span has its position slice
// (even spans) or its charge slice (odd spans) run one body past the
// other where the arrays allow, which P2PRow must clamp.
type spanCut struct {
	cuts  []int
	ghost int
}

// randCut draws a cut of n sources into 1..k spans.
func randCut(rng *rand.Rand, n, k int) spanCut {
	c := spanCut{cuts: []int{0}, ghost: -1}
	spans := 1 + rng.Intn(k)
	for i := 1; i < spans; i++ {
		c.cuts = append(c.cuts, rng.Intn(n+1))
	}
	c.cuts = append(c.cuts, n)
	slices.Sort(c.cuts)
	if spans > 1 || rng.Intn(2) == 0 {
		c.ghost = rng.Intn(spans)
	}
	return c
}

// bounds returns span i's position and charge bounds (lo, hiPos, hiCharge)
// in arrays of np positions and nc charges.
func (c spanCut) bounds(i, np, nc int) (lo, hp, hc int) {
	lo, hp = c.cuts[i], c.cuts[i+1]
	hc = hp
	if i != c.ghost {
		if i%2 == 0 && hp < np {
			hp++
		} else if i%2 == 1 && hc < nc {
			hc++
		}
	}
	return lo, hp, hc
}

func (c spanCut) gravity(ys []geom.Vec3, ms []float64) []GravitySpan {
	var out []GravitySpan
	for i := 0; i+1 < len(c.cuts); i++ {
		lo, hp, hc := c.bounds(i, len(ys), len(ms))
		s := GravitySpan{Pos: ys[lo:hp], Mass: ms[lo:hc]}
		if i == c.ghost {
			s = GravitySpan{Pos: slices.Clone(s.Pos), Mass: slices.Clone(s.Mass)}
		}
		out = append(out, s)
	}
	return out
}

func (c spanCut) stokeslet(ys, fs []geom.Vec3) []StokesletSpan {
	var out []StokesletSpan
	for i := 0; i+1 < len(c.cuts); i++ {
		lo, hp, hc := c.bounds(i, len(ys), len(fs))
		s := StokesletSpan{Pos: ys[lo:hp], Force: fs[lo:hc]}
		if i == c.ghost {
			s = StokesletSpan{Pos: slices.Clone(s.Pos), Force: slices.Clone(s.Force)}
		}
		out = append(out, s)
	}
	return out
}

// checkGravityRow compares Gravity.P2PRow over the cut of in's sources
// with P2PScalar run span by span on each span's clamped lists.
func checkGravityRow(t testing.TB, k Gravity, in p2pInput, c spanCut, what string) {
	t.Helper()
	spans := c.gravity(in.ys, in.ms)
	phiA := slices.Clone(in.phi)
	accA := slices.Clone(in.acc)
	phiB := slices.Clone(in.phi)
	accB := slices.Clone(in.acc)
	k.P2PRow(in.xt, phiA, accA, spans)
	for _, s := range spans {
		m := min(len(s.Pos), len(s.Mass))
		k.P2PScalar(in.xt, phiB, accB, s.Pos[:m], s.Mass[:m])
	}
	for i := range in.xt {
		if !sameBits(phiA[i], phiB[i]) || !sameVec(accA[i], accB[i]) {
			t.Fatalf("gravity row %s nt=%d cuts=%v ghost=%d eps=%v: target %d differs: phi %x vs %x, acc %v vs %v",
				what, len(in.xt), c.cuts, c.ghost, k.Softening, i,
				math.Float64bits(phiA[i]), math.Float64bits(phiB[i]), accA[i], accB[i])
		}
	}
}

func checkStokesletRow(t testing.TB, k Stokeslet, in p2pInput, c spanCut, what string) {
	t.Helper()
	spans := c.stokeslet(in.ys, in.fs)
	velA := slices.Clone(in.acc)
	velB := slices.Clone(in.acc)
	k.P2PRow(in.xt, velA, spans)
	for _, s := range spans {
		m := min(len(s.Pos), len(s.Force))
		k.P2PScalar(in.xt, velB, s.Pos[:m], s.Force[:m])
	}
	for i := range in.xt {
		if !sameVec(velA[i], velB[i]) {
			t.Fatalf("stokeslet row %s nt=%d cuts=%v ghost=%d eps=%v: target %d differs: %v vs %v",
				what, len(in.xt), c.cuts, c.ghost, k.Eps, i, velA[i], velB[i])
		}
	}
}

// TestGravityP2PRowBitIdentical runs the packed matrix (every tail length,
// 0..70 sources, self rows, planted coincident pairs, -0 starting
// accumulators, eps = 0 and > 0) through the row entry, the sources cut
// into one to six spans, empty and ghost spans among them.
func TestGravityP2PRowBitIdentical(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for _, soft := range []float64{0, 0.01} {
			k := Gravity{G: 1.25, Softening: soft}
			matrix(rng, func(in p2pInput, what string) {
				checkGravityRow(t, k, in, randCut(rng, min(len(in.ys), len(in.ms)), 6), what)
			})
		}
	})
}

func TestStokesletP2PRowBitIdentical(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		for _, eps := range []float64{0, 0.02} {
			k := Stokeslet{Mu: 0.9, Eps: eps}
			matrix(rng, func(in p2pInput, what string) {
				checkStokesletRow(t, k, in, randCut(rng, min(len(in.ys), len(in.fs)), 6), what)
			})
		}
	})
}

// TestP2PRowNonFiniteAccumulators starts rows on NaN and ±Inf
// accumulators beside -0 and finite ones: a skipped lane keeps each as it
// was, an active one propagates it as the scalar walk does.
func TestP2PRowNonFiniteAccumulators(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		for _, eps := range []float64{0, 0.01} {
			for _, self := range []bool{false, true} {
				in := genInput(rng, 11, 37, self)
				in.phi[3], in.phi[6] = math.NaN(), math.Inf(-1)
				in.acc[4] = geom.Vec3{X: math.Inf(1), Y: math.NaN(), Z: math.Copysign(0, -1)}
				in.acc[9] = geom.Vec3{X: math.Copysign(0, -1), Y: math.Inf(-1), Z: math.NaN()}
				c := randCut(rng, min(len(in.ys), len(in.ms)), 4)
				checkGravityRow(t, Gravity{G: 0.8, Softening: eps}, in, c, "non-finite")
				checkStokesletRow(t, Stokeslet{Mu: 1.2, Eps: eps}, in, c, "non-finite")
			}
		}
	})
}

// TestP2PRowMasksTheFinishedContribution pins where the skip mask applies.
// Targets sit 1e-170 from a source at the origin, so r² underflows to 0
// with d ≠ 0 and the scalar walk skips the pair; on -0 accumulators a mask
// applied before the last product (0·dx = -0 for dx < 0) would turn -0
// into +0, the mask on the finished product subtracts +0 and keeps -0.
// Zero-charge sources with dx < 0 < dy then make a Stokeslet contribution
// that cancels to +0 (f.x·h1 = +0, dx·h2 = -0) on a -0 accumulator: the
// reference gives -0 + (+0) = +0, and a body that negated the products
// instead of the sum would keep -0.
func TestP2PRowMasksTheFinishedContribution(t *testing.T) {
	nz := math.Copysign(0, -1)
	xt := []geom.Vec3{
		{X: -1e-170, Y: 2e-171, Z: -3e-171},
		{X: 1e-170, Y: -1e-170, Z: 5e-171},
		{X: -4e-171, Y: 1e-170, Z: 1e-170},
		{X: -1e-170, Y: -1e-170, Z: -1e-170},
		{X: 2e-171, Y: 7e-171, Z: -1e-170},
	}
	origin := []geom.Vec3{{}}
	mass, unit := []float64{0.5}, []geom.Vec3{{X: 1, Y: -2, Z: 0.5}}
	far := []geom.Vec3{{X: 1, Y: -1, Z: 0.25}, {X: 2, Y: -3, Z: 1}}
	noMass, noForce := []float64{0, 0}, []geom.Vec3{{}, {}}
	eachDispatch(t, func(t *testing.T) {
		for _, eps := range []float64{0, 1e-110, 0.01} {
			g := Gravity{G: 1, Softening: eps}
			s := Stokeslet{Mu: 1, Eps: eps}
			phi := make([]float64, len(xt))
			acc := make([]geom.Vec3, len(xt))
			vel := make([]geom.Vec3, len(xt))
			ref := make([]geom.Vec3, len(xt))
			for i := range xt {
				phi[i] = nz
				acc[i] = geom.Vec3{X: nz, Y: nz, Z: nz}
				vel[i], ref[i] = acc[i], acc[i]
			}
			g.P2PRow(xt, phi, acc, []GravitySpan{{Pos: origin, Mass: mass}, {}, {Pos: xt, Mass: []float64{1, 1, 1, 1, 1}}})
			for i := range xt {
				for _, v := range []float64{phi[i], acc[i].X, acc[i].Y, acc[i].Z} {
					if math.Float64bits(v) != math.Float64bits(nz) {
						t.Fatalf("gravity eps=%v target %d: a skipped pair moved a -0 accumulator: phi %v acc %v", eps, i, phi[i], acc[i])
					}
				}
			}
			s.P2PRow(xt, vel, []StokesletSpan{{Pos: origin, Force: unit}, {Pos: far, Force: noForce}})
			s.P2PScalar(xt, ref, origin, unit)
			s.P2PScalar(xt, ref, far, noForce)
			for i := range xt {
				if !sameVec(vel[i], ref[i]) {
					t.Fatalf("stokeslet eps=%v target %d: %v, want %v", eps, i, vel[i], ref[i])
				}
			}
			if eps == 0 && math.Float64bits(ref[0].X) != 0 {
				t.Fatalf("reference lost the cancelling case: vel.X %v", ref[0].X)
			}
			phi2, acc2 := slices.Clone(phi), slices.Clone(acc)
			g.P2PRow(xt, phi, acc, []GravitySpan{{Pos: far, Mass: noMass}})
			g.P2PScalar(xt, phi2, acc2, far, noMass)
			for i := range xt {
				if !sameBits(phi[i], phi2[i]) || !sameVec(acc[i], acc2[i]) {
					t.Fatalf("gravity zero masses eps=%v target %d: %v %v, want %v %v", eps, i, phi[i], acc[i], phi2[i], acc2[i])
				}
			}
		}
	})
}

// FuzzP2PRowMatchesScalar draws a problem as FuzzP2PPackedMatchesScalar
// does and cuts its sources into 1..cuts+1 spans.
func FuzzP2PRowMatchesScalar(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(1), 0.0, false, uint8(0))
	f.Add(int64(2), uint8(7), uint8(70), 0.01, false, uint8(5))
	f.Add(int64(3), uint8(40), uint8(0), 0.0, true, uint8(3))
	f.Add(int64(4), uint8(9), uint8(3), 1e-160, true, uint8(7))
	f.Add(int64(5), uint8(255), uint8(2), math.Inf(1), false, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nt, ns uint8, eps float64, self bool, cuts uint8) {
		rng := rand.New(rand.NewSource(seed))
		in := genInput(rng, int(nt), int(ns), self)
		c := randCut(rng, len(in.ys), 1+int(cuts%8))
		checkGravityRow(t, Gravity{G: 0.7, Softening: eps}, in, c, "fuzz")
		checkStokesletRow(t, Stokeslet{Mu: 1.3, Eps: eps}, in, c, "fuzz")
	})
}
