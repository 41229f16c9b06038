package kernels

import (
	"math"
	"math/rand"
	"testing"

	"afmm/internal/geom"
)

// The packed P2P row bodies take targets in blocks of four, one per vector
// lane (a last block of one to three is padded), against a row's source
// spans. These tests hold P2P and P2PRow to P2PScalar, span by span, bit
// for bit — math.Float64bits of every accumulator — over every block/tail
// split and span cut, in both dispatch states: with the packed body (where
// the host has it) and with the fallback forced.

func randVec(rng *rand.Rand) geom.Vec3 {
	return geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
}

// eachDispatch runs f with the packed body enabled (skipped on hosts
// without it) and with the scalar fallback forced.
func eachDispatch(t *testing.T, f func(t *testing.T)) {
	host := packedOK
	t.Cleanup(func() { packedOK = host })
	for _, st := range []struct {
		name   string
		packed bool
	}{{"packed", true}, {"fallback", false}} {
		t.Run(st.name, func(t *testing.T) {
			if st.packed && !host {
				t.Skip("no AVX2 on this host")
			}
			packedOK = st.packed
			f(t)
		})
	}
}

// sameBits is bit equality, with any NaN equal to any NaN: IEEE 754 leaves
// the payload a NaN operation propagates to the implementation, and the
// compiler is free to commute the operands of the scalar walk.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func sameVec(a, b geom.Vec3) bool {
	return sameBits(a.X, b.X) && sameBits(a.Y, b.Y) && sameBits(a.Z, b.Z)
}

// p2pInput is one generated problem for both fields: targets, sources and
// starting accumulators, all sliced at an odd offset of a larger array.
type p2pInput struct {
	xt, ys, fs, acc []geom.Vec3
	ms, phi         []float64
}

// genInput draws nt targets and ns sources. Every third target is also
// planted as a source (a coincident pair in that lane only), self makes the
// source list the target list itself, and the starting accumulators are
// non-zero with a -0 among them.
func genInput(rng *rand.Rand, nt, ns int, self bool) p2pInput {
	const off = 3
	vecs := func(n int) []geom.Vec3 {
		v := make([]geom.Vec3, n+2*off)
		for i := range v {
			v[i] = randVec(rng)
		}
		return v[off : off+n : off+n]
	}
	nums := func(n int) []float64 {
		v := make([]float64, n+2*off)
		for i := range v {
			v[i] = rng.Float64() + 0.1
		}
		return v[off : off+n : off+n]
	}
	in := p2pInput{xt: vecs(nt), acc: vecs(nt), phi: nums(nt)}
	if self {
		ns = nt
		in.ys = in.xt
	} else {
		in.ys = vecs(ns)
		for i := 0; i < nt && ns > 0; i += 3 {
			in.ys[(5*i+1)%ns] = in.xt[i]
		}
	}
	in.fs, in.ms = vecs(ns), nums(ns)
	if nt > 1 {
		in.phi[1] = math.Copysign(0, -1)
		in.acc[1] = geom.Vec3{X: math.Copysign(0, -1), Y: 0, Z: math.Copysign(0, -1)}
	}
	return in
}

// checkGravity compares Gravity.P2P with P2PScalar on in; the reference
// gets the clamped source list P2P documents.
func checkGravity(t testing.TB, k Gravity, in p2pInput, what string) {
	t.Helper()
	n := len(in.ys)
	if len(in.ms) < n {
		n = len(in.ms)
	}
	phiA := append([]float64(nil), in.phi...)
	accA := append([]geom.Vec3(nil), in.acc...)
	phiB := append([]float64(nil), in.phi...)
	accB := append([]geom.Vec3(nil), in.acc...)
	k.P2P(in.xt, phiA, accA, in.ys, in.ms)
	k.P2PScalar(in.xt, phiB, accB, in.ys[:n], in.ms[:n])
	for i := range in.xt {
		if !sameBits(phiA[i], phiB[i]) || !sameVec(accA[i], accB[i]) {
			t.Fatalf("gravity %s nt=%d ns=%d eps=%v: target %d differs: phi %x vs %x, acc %v vs %v",
				what, len(in.xt), n, k.Softening, i,
				math.Float64bits(phiA[i]), math.Float64bits(phiB[i]), accA[i], accB[i])
		}
	}
}

func checkStokeslet(t testing.TB, k Stokeslet, in p2pInput, what string) {
	t.Helper()
	n := len(in.ys)
	if len(in.fs) < n {
		n = len(in.fs)
	}
	velA := append([]geom.Vec3(nil), in.acc...)
	velB := append([]geom.Vec3(nil), in.acc...)
	k.P2P(in.xt, velA, in.ys, in.fs)
	k.P2PScalar(in.xt, velB, in.ys[:n], in.fs[:n])
	for i := range in.xt {
		if !sameVec(velA[i], velB[i]) {
			t.Fatalf("stokeslet %s nt=%d ns=%d eps=%v: target %d differs: %v vs %v",
				what, len(in.xt), n, k.Eps, i, velA[i], velB[i])
		}
	}
}

// matrix runs check over every tail length and source count of the issue's
// property matrix, rectangular and self rows, with the charge slice shorter
// than the position slice on every fourth case.
func matrix(rng *rand.Rand, check func(in p2pInput, what string)) {
	for nt := 0; nt <= 40; nt++ {
		for ns := 0; ns <= 70; ns++ {
			in := genInput(rng, nt, ns, false)
			if (nt+ns)%4 == 0 && ns > 2 {
				in.ms, in.fs = in.ms[:ns-2], in.fs[:ns-2]
			}
			check(in, "rect")
		}
		check(genInput(rng, nt, 0, true), "self")
	}
}

// TestGravityP2PBlockedBitIdentical: blocks of four plus tail == scalar.
// With eps = 0 a coincident lane holds Inf/NaN before the blend drops it.
func TestGravityP2PBlockedBitIdentical(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for _, soft := range []float64{0, 0.01} {
			k := Gravity{G: 1.25, Softening: soft}
			matrix(rng, func(in p2pInput, what string) { checkGravity(t, k, in, what) })
		}
	})
}

// TestStokesletP2PBlockedBitIdentical is the Stokeslet analogue; with
// eps = 0 the coincident lane has den15 == 0 and c = Inf.
func TestStokesletP2PBlockedBitIdentical(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		for _, eps := range []float64{0, 0.02} {
			k := Stokeslet{Mu: 0.9, Eps: eps}
			matrix(rng, func(in p2pInput, what string) { checkStokeslet(t, k, in, what) })
		}
	})
}

// TestP2PPackedNonFiniteStaysInLane plants a NaN in one target and an Inf
// in another, then an Inf in one source: P2P still equals P2PScalar, and
// with only targets poisoned every other lane of the block stays finite.
func TestP2PPackedNonFiniteStaysInLane(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for _, eps := range []float64{0, 0.03} {
			g := Gravity{G: 1, Softening: eps}
			s := Stokeslet{Mu: 1.1, Eps: eps}
			in := genInput(rng, 11, 23, false)
			in.xt[2].X = math.NaN()
			in.xt[5].Z = math.Inf(1)
			checkGravity(t, g, in, "bad targets")
			checkStokeslet(t, s, in, "bad targets")

			phi := append([]float64(nil), in.phi...)
			acc := append([]geom.Vec3(nil), in.acc...)
			vel := append([]geom.Vec3(nil), in.acc...)
			g.P2P(in.xt, phi, acc, in.ys, in.ms)
			s.P2P(in.xt, vel, in.ys, in.fs)
			for i := range in.xt {
				if i == 2 || i == 5 {
					continue
				}
				for _, v := range []float64{phi[i], acc[i].X, acc[i].Y, acc[i].Z, vel[i].X, vel[i].Y, vel[i].Z} {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("eps=%v: target %d picked up a non-finite value from a neighbouring lane", eps, i)
					}
				}
			}

			in.ys[7].Y = math.Inf(-1)
			in.ys[9].X = math.NaN()
			checkGravity(t, g, in, "bad sources")
			checkStokeslet(t, s, in, "bad sources")
		}
	})
}

// TestP2PPackedLongSourceList: more sources than one assembly call takes
// in a single block, as one span and as a row whose spans add up past the
// budget, so the row goes out in several calls and the long span in pieces.
func TestP2PPackedLongSourceList(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		in := genInput(rand.New(rand.NewSource(7)), 13, 140000, false)
		checkGravity(t, Gravity{G: 1, Softening: 0.01}, in, "long")
		checkStokeslet(t, Stokeslet{Mu: 1, Eps: 0.01}, in, "long")
		row := spanCut{cuts: []int{0, 50000, 50000, 90000, 140000}, ghost: 2}
		checkGravityRow(t, Gravity{G: 1, Softening: 0.01}, in, row, "long row")
		checkStokesletRow(t, Stokeslet{Mu: 1, Eps: 0.01}, in, row, "long row")
	})
}

// TestP2PNoAllocs: the span list and the padded tail block live on the
// stack, for one span and for a row.
func TestP2PNoAllocs(t *testing.T) {
	in := genInput(rand.New(rand.NewSource(6)), 14, 30, false)
	g := Gravity{G: 1, Softening: 0.01}
	s := Stokeslet{Mu: 1, Eps: 0.01}
	if a := testing.AllocsPerRun(20, func() { g.P2P(in.xt, in.phi, in.acc, in.ys, in.ms) }); a != 0 {
		t.Fatalf("Gravity.P2P allocates %v per call", a)
	}
	if a := testing.AllocsPerRun(20, func() { s.P2P(in.xt, in.acc, in.ys, in.fs) }); a != 0 {
		t.Fatalf("Stokeslet.P2P allocates %v per call", a)
	}
	var gs [3]GravitySpan
	var ss [3]StokesletSpan
	for i, c := range [][2]int{{0, 9}, {9, 9}, {9, 30}} {
		gs[i] = GravitySpan{Pos: in.ys[c[0]:c[1]], Mass: in.ms[c[0]:c[1]]}
		ss[i] = StokesletSpan{Pos: in.ys[c[0]:c[1]], Force: in.fs[c[0]:c[1]]}
	}
	if a := testing.AllocsPerRun(20, func() { g.P2PRow(in.xt, in.phi, in.acc, gs[:]) }); a != 0 {
		t.Fatalf("Gravity.P2PRow allocates %v per call", a)
	}
	if a := testing.AllocsPerRun(20, func() { s.P2PRow(in.xt, in.acc, ss[:]) }); a != 0 {
		t.Fatalf("Stokeslet.P2PRow allocates %v per call", a)
	}
}

// FuzzP2PPackedMatchesScalar draws a problem from (seed, nt, ns, eps, self)
// and checks both fields; the seeds are corners of the matrix above.
func FuzzP2PPackedMatchesScalar(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(1), 0.0, false)
	f.Add(int64(2), uint8(7), uint8(70), 0.01, false)
	f.Add(int64(3), uint8(40), uint8(0), 0.0, true)
	f.Add(int64(4), uint8(9), uint8(3), 1e-160, true)
	f.Add(int64(5), uint8(255), uint8(2), math.Inf(1), false)
	f.Fuzz(func(t *testing.T, seed int64, nt, ns uint8, eps float64, self bool) {
		in := genInput(rand.New(rand.NewSource(seed)), int(nt), int(ns), self)
		checkGravity(t, Gravity{G: 0.7, Softening: eps}, in, "fuzz")
		checkStokeslet(t, Stokeslet{Mu: 1.3, Eps: eps}, in, "fuzz")
	})
}
