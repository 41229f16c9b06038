package kernels

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"afmm/internal/geom"
)

// The packed P2P row bodies take targets in blocks of four, one per vector
// lane (a last block of one to three is padded), against a row's source
// spans. One harness holds them to P2PScalar, span by span, bit for bit —
// math.Float64bits of every accumulator — over kernel (Gravity,
// Stokeslet) × entry (P2P on whole lists, P2PRow on a cut of them) ×
// problem, in both dispatch states: with the packed body (where the host
// has it) and with the fallback forced.

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

// spanCut describes how a row cuts a problem's sources into spans: span i
// covers sources cuts[i]:cuts[i+1] (equal bounds make an empty span), and
// span ghost (-1: none) is a copy in arrays of its own, as a dmem node
// holds a remote leaf. Every other span has its position slice (even
// spans) or its charge slice (odd spans) run one body past the other where
// the arrays allow, which P2PRow must clamp.
type spanCut struct {
	cuts  []int
	ghost int
}

// randCut draws a cut of n sources into 1..k spans.
func randCut(rng *rand.Rand, n, k int) *spanCut {
	c := &spanCut{cuts: []int{0}, ghost: -1}
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

// spans cuts ys and the charges qs (masses or forces) by c; a nil cut is
// the one span of P2P, the whole lists unclamped.
func spans[Q any](c *spanCut, ys []geom.Vec3, qs []Q) (pos [][]geom.Vec3, q [][]Q) {
	if c == nil {
		return [][]geom.Vec3{ys}, [][]Q{qs}
	}
	for i := 0; i+1 < len(c.cuts); i++ {
		lo, hp := c.cuts[i], c.cuts[i+1]
		hq := hp
		if i != c.ghost {
			if i%2 == 0 && hp < len(ys) {
				hp++
			} else if i%2 == 1 && hq < len(qs) {
				hq++
			}
		}
		p, s := ys[lo:hp], qs[lo:hq]
		if i == c.ghost {
			p, s = slices.Clone(p), slices.Clone(s)
		}
		pos, q = append(pos, p), append(q, s)
	}
	return pos, q
}

// check runs k over in's sources cut by c — P2P when c is nil, P2PRow
// otherwise — on copies of in's accumulators, and P2PScalar span by span
// on each span's clamped lists, and fails on the first accumulator whose
// bits differ.
func check(t testing.TB, k any, in p2pInput, c *spanCut, what string) {
	t.Helper()
	phiA, phiB := slices.Clone(in.phi), slices.Clone(in.phi)
	accA, accB := slices.Clone(in.acc), slices.Clone(in.acc)
	switch k := k.(type) {
	case Gravity:
		pos, ms := spans(c, in.ys, in.ms)
		row := make([]GravitySpan, len(pos))
		for i := range pos {
			row[i] = GravitySpan{Pos: pos[i], Mass: ms[i]}
			n := row[i].sources()
			k.P2PScalar(in.xt, phiB, accB, pos[i][:n], ms[i][:n])
		}
		if c == nil {
			k.P2P(in.xt, phiA, accA, in.ys, in.ms)
		} else {
			k.P2PRow(in.xt, phiA, accA, row)
		}
	case Stokeslet:
		pos, fs := spans(c, in.ys, in.fs)
		row := make([]StokesletSpan, len(pos))
		for i := range pos {
			row[i] = StokesletSpan{Pos: pos[i], Force: fs[i]}
			n := row[i].sources()
			k.P2PScalar(in.xt, accB, pos[i][:n], fs[i][:n])
		}
		if c == nil {
			k.P2P(in.xt, accA, in.ys, in.fs)
		} else {
			k.P2PRow(in.xt, accA, row)
		}
		phiA = phiB
	}
	for i := range in.xt {
		if !sameBits(phiA[i], phiB[i]) || !sameVec(accA[i], accB[i]) {
			t.Fatalf("%+v %s nt=%d ns=%d cut=%v: target %d differs: phi %x vs %x, acc %v vs %v",
				k, what, len(in.xt), len(in.ys), c, i,
				math.Float64bits(phiA[i]), math.Float64bits(phiB[i]), accA[i], accB[i])
		}
	}
}

// p2pMatrix runs every kernel of ks, in both dispatch states, over every
// tail length 0..40 and source count 0..70 — rectangular rows, with the
// charge slice shorter than the position slice on every fourth case, and
// self rows — through P2P, or with rows set through P2PRow on the sources
// cut into one to six spans, empty and ghost spans among them.
func p2pMatrix(t *testing.T, seed int64, rows bool, ks ...any) {
	eachDispatch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(seed))
		for _, k := range ks {
			run := func(in p2pInput, what string) {
				var c *spanCut
				if rows {
					c = randCut(rng, min(len(in.ys), len(in.ms)), 6)
				}
				check(t, k, in, c, what)
			}
			for nt := 0; nt <= 40; nt++ {
				for ns := 0; ns <= 70; ns++ {
					in := genInput(rng, nt, ns, false)
					if (nt+ns)%4 == 0 && ns > 2 {
						in.ms, in.fs = in.ms[:ns-2], in.fs[:ns-2]
					}
					run(in, "rect")
				}
				run(genInput(rng, nt, 0, true), "self")
			}
		}
	})
}

// With eps = 0 a coincident gravity lane holds Inf/NaN before the blend
// drops it, and a coincident Stokeslet lane has den15 == 0 and c = Inf.
func TestGravityP2PBlockedBitIdentical(t *testing.T) {
	p2pMatrix(t, 3, false, Gravity{G: 1.25}, Gravity{G: 1.25, Softening: 0.01})
}

func TestStokesletP2PBlockedBitIdentical(t *testing.T) {
	p2pMatrix(t, 4, false, Stokeslet{Mu: 0.9}, Stokeslet{Mu: 0.9, Eps: 0.02})
}

func TestGravityP2PRowBitIdentical(t *testing.T) {
	p2pMatrix(t, 13, true, Gravity{G: 1.25}, Gravity{G: 1.25, Softening: 0.01})
}

func TestStokesletP2PRowBitIdentical(t *testing.T) {
	p2pMatrix(t, 14, true, Stokeslet{Mu: 0.9}, Stokeslet{Mu: 0.9, Eps: 0.02})
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
			check(t, g, in, nil, "bad targets")
			check(t, s, in, nil, "bad targets")
			phi := slices.Clone(in.phi)
			acc := slices.Clone(in.acc)
			vel := slices.Clone(in.acc)
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
			check(t, g, in, nil, "bad sources")
			check(t, s, in, nil, "bad sources")
		}
	})
}

// TestP2PPackedLongSourceList: more sources than one assembly call takes
// in a single block, as one span and as a row whose spans add up past the
// budget, so the row goes out in several calls and the long span in pieces.
func TestP2PPackedLongSourceList(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		in := genInput(rand.New(rand.NewSource(7)), 13, 140000, false)
		row := &spanCut{cuts: []int{0, 50000, 50000, 90000, 140000}, ghost: 2}
		for _, k := range []any{Gravity{G: 1, Softening: 0.01}, Stokeslet{Mu: 1, Eps: 0.01}} {
			check(t, k, in, nil, "long")
			check(t, k, in, row, "long row")
		}
	})
}

// TestP2PNoAllocs: the span list and the padded tail block live on the
// stack, for one span and for a row.
func TestP2PNoAllocs(t *testing.T) {
	in := genInput(rand.New(rand.NewSource(6)), 14, 30, false)
	g := Gravity{G: 1, Softening: 0.01}
	s := Stokeslet{Mu: 1, Eps: 0.01}
	var gs [3]GravitySpan
	var ss [3]StokesletSpan
	for i, c := range [][2]int{{0, 9}, {9, 9}, {9, 30}} {
		gs[i] = GravitySpan{Pos: in.ys[c[0]:c[1]], Mass: in.ms[c[0]:c[1]]}
		ss[i] = StokesletSpan{Pos: in.ys[c[0]:c[1]], Force: in.fs[c[0]:c[1]]}
	}
	for name, f := range map[string]func(){
		"Gravity.P2P":      func() { g.P2P(in.xt, in.phi, in.acc, in.ys, in.ms) },
		"Stokeslet.P2P":    func() { s.P2P(in.xt, in.acc, in.ys, in.fs) },
		"Gravity.P2PRow":   func() { g.P2PRow(in.xt, in.phi, in.acc, gs[:]) },
		"Stokeslet.P2PRow": func() { s.P2PRow(in.xt, in.acc, ss[:]) },
	} {
		if a := testing.AllocsPerRun(20, f); a != 0 {
			t.Fatalf("%s allocates %v per call", name, a)
		}
	}
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
				check(t, Gravity{G: 0.8, Softening: eps}, in, c, "non-finite")
				check(t, Stokeslet{Mu: 1.2, Eps: eps}, in, c, "non-finite")
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

// FuzzP2PPackedMatchesScalar draws a problem from (seed, nt, ns, eps, self)
// and checks both fields through P2P; the seeds are corners of the matrix.
func FuzzP2PPackedMatchesScalar(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(1), 0.0, false)
	f.Add(int64(2), uint8(7), uint8(70), 0.01, false)
	f.Add(int64(3), uint8(40), uint8(0), 0.0, true)
	f.Add(int64(4), uint8(9), uint8(3), 1e-160, true)
	f.Add(int64(5), uint8(255), uint8(2), math.Inf(1), false)
	f.Fuzz(func(t *testing.T, seed int64, nt, ns uint8, eps float64, self bool) {
		in := genInput(rand.New(rand.NewSource(seed)), int(nt), int(ns), self)
		check(t, Gravity{G: 0.7, Softening: eps}, in, nil, "fuzz")
		check(t, Stokeslet{Mu: 1.3, Eps: eps}, in, nil, "fuzz")
	})
}

// FuzzP2PRowMatchesScalar draws a problem as FuzzP2PPackedMatchesScalar
// does and cuts its sources into 1..cuts+1 spans for P2PRow.
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
		check(t, Gravity{G: 0.7, Softening: eps}, in, c, "fuzz")
		check(t, Stokeslet{Mu: 1.3, Eps: eps}, in, c, "fuzz")
	})
}
