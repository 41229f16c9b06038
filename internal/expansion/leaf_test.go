package expansion

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"afmm/internal/geom"
	"afmm/internal/sphharm"
)

// The leaf entry points (leaf.go) are held to the per-body operators bit
// for bit — math.Float64bits of every multipole coefficient, potential and
// gradient component — in both dispatch states, at both widths, and for
// every tail of a group of four.

// leafInputs is one leaf: n bodies in a cell of half-width 0.25 around
// center, four charges each, and per column a nonzero multipole to
// accumulate onto and a local to evaluate.
type leafInputs struct {
	p      int
	center geom.Vec3
	pos    []geom.Vec3
	q      [][4]float64
	m, l   [4]Expansion
}

func randomLeaf(p, n int, rng *rand.Rand) leafInputs {
	in := leafInputs{p: p, center: geom.Vec3{X: 0.25, Y: -0.5, Z: 0.125}}
	for i := 0; i < n; i++ {
		d := geom.Vec3{X: rng.Float64() - 0.5, Y: rng.Float64() - 0.5, Z: rng.Float64() - 0.5}
		in.pos = append(in.pos, in.center.Add(d.Scale(0.5)))
		in.q = append(in.q, [4]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
	}
	for c := range in.m {
		in.m[c], in.l[c] = randomExpansion(p, rng), randomExpansion(p, rng)
	}
	return in
}

// copies returns fresh copies of the starting multipoles.
func (in *leafInputs) copies() (m [4]Expansion) {
	for c := range m {
		m[c] = NewExpansion(in.p)
		copy(m[c].C, in.m[c].C)
	}
	return m
}

// appendBits appends the bits of every float of the outputs to out.
func appendBits(out []uint64, vs ...float64) []uint64 {
	for _, v := range vs {
		out = append(out, math.Float64bits(v))
	}
	return out
}

func appendExpansion(out []uint64, e Expansion) []uint64 {
	for _, c := range e.C {
		out = appendBits(out, real(c), imag(c))
	}
	return out
}

// viaLeaf runs the four leaf entry points on in; viaBodies the per-body
// operators body by body. Both return every output's bits in one order.
func (in *leafInputs) viaLeaf(w *Workspace) (out []uint64) {
	q1 := make([]float64, len(in.pos))
	for i := range q1 {
		q1[i] = in.q[i][0]
	}
	m := in.copies()
	w.P2MLeaf(m[0], in.center, in.pos, q1)
	out = appendExpansion(out, m[0])
	m = in.copies()
	w.P2MLeaf4(&m, in.center, in.pos, func(i int) [4]float64 { return in.q[i] })
	for c := range m {
		out = appendExpansion(out, m[c])
	}
	next := 0 // the emits come in body order
	w.L2PLeaf(in.l[0], in.center, in.pos, func(i int, phi float64, grad geom.Vec3) {
		if i != next {
			panic("L2PLeaf emitted out of body order")
		}
		next++
		out = appendBits(out, phi, grad.X, grad.Y, grad.Z)
	})
	next = 0
	w.L2PLeaf4(&in.l, in.center, in.pos, func(i int, phi [4]float64, grad [4]geom.Vec3) {
		if i != next {
			panic("L2PLeaf4 emitted out of body order")
		}
		next++
		for c := range phi {
			out = appendBits(out, phi[c], grad[c].X, grad[c].Y, grad[c].Z)
		}
	})
	if next != len(in.pos) {
		panic("a leaf entry point skipped bodies")
	}
	return out
}

func (in *leafInputs) viaBodies(w *Workspace) (out []uint64) {
	m := in.copies()
	for i, x := range in.pos {
		w.P2M(m[0], in.center, x, in.q[i][0])
	}
	out = appendExpansion(out, m[0])
	m = in.copies()
	for i, x := range in.pos {
		w.P2M4(&m, in.center, x, in.q[i])
	}
	for c := range m {
		out = appendExpansion(out, m[c])
	}
	for _, x := range in.pos {
		phi, grad := w.L2P(in.l[0], in.center, x)
		out = appendBits(out, phi, grad.X, grad.Y, grad.Z)
	}
	for _, x := range in.pos {
		phi, grad := w.L2P4(&in.l, in.center, x)
		for c := range phi {
			out = appendBits(out, phi[c], grad[c].X, grad[c].Y, grad[c].Z)
		}
	}
	return out
}

// leafOrders are the orders the leaf gates run at: every order the
// benchmark, the accuracy matrix and the fuzz targets use, 20 and MaxOrder.
func leafOrders() []int {
	orders := []int{20, sphharm.MaxOrder}
	for p := 0; p <= 14; p++ {
		orders = append(orders, p)
	}
	return orders
}

// TestLeafPackedMatchesScalar: every leaf entry point equals the per-body
// operators in Float64bits, for leaves of 1 to 9 bodies (full groups of
// four and every tail), at both widths, under both dispatch states.
func TestLeafPackedMatchesScalar(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		for _, p := range leafOrders() {
			rng := rand.New(rand.NewSource(int64(130 + p)))
			w := NewWorkspace(p)
			for n := 1; n <= 9; n++ {
				in := randomLeaf(p, n, rng)
				got, want := in.viaLeaf(w), in.viaBodies(w)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("p=%d leaf of %d: output %d of %d: leaf %v, per body %v", p, n, i, len(want),
							math.Float64frombits(got[i]), math.Float64frombits(want[i]))
					}
				}
			}
		}
	})
}

// TestLeafOperatorsAllocationFree: after a workspace's first leaf call,
// no leaf entry point allocates.
func TestLeafOperatorsAllocationFree(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		const p = 8
		in := randomLeaf(p, 37, rand.New(rand.NewSource(36)))
		w := NewWorkspace(p)
		q1 := make([]float64, len(in.pos))
		in.viaLeaf(w)
		m := in.copies()
		var sum float64
		for name, f := range map[string]func(){
			"P2MLeaf":  func() { w.P2MLeaf(m[0], in.center, in.pos, q1) },
			"P2MLeaf4": func() { w.P2MLeaf4(&m, in.center, in.pos, func(i int) [4]float64 { return in.q[i] }) },
			"L2PLeaf": func() {
				w.L2PLeaf(in.l[0], in.center, in.pos, func(_ int, phi float64, _ geom.Vec3) { sum += phi })
			},
			"L2PLeaf4": func() {
				w.L2PLeaf4(&in.l, in.center, in.pos, func(_ int, phi [4]float64, _ [4]geom.Vec3) { sum += phi[0] })
			},
		} {
			if a := testing.AllocsPerRun(20, f); a != 0 {
				t.Errorf("%s allocates %v times per leaf, want 0", name, a)
			}
		}
	})
}

// FuzzLeafPackedMatchesScalar: for any order, leaf size and raw position
// and charge bits — signed zeros, infinities, NaN, subnormals — the leaf
// entry points leave the same bits under both dispatch states (any NaN
// equal to any NaN).
func FuzzLeafPackedMatchesScalar(f *testing.F) {
	bits := func(vs ...float64) (b []byte) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add(uint8(4), uint8(5), bits(0.1, -0.2, 0.3, negZero, 0, 0.25, 0.5, 1e-3), bits(1, -2, 0.5, 3))
	f.Add(uint8(8), uint8(3), bits(math.Inf(1), 0, 0, 0.1, math.NaN(), 0.2), bits(negZero, 1, math.Inf(-1)))
	f.Add(uint8(12), uint8(9), bits(5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1e-300), bits(math.NaN(), 5e-324, 7))
	f.Add(uint8(0), uint8(1), bits(0.3), bits(2))
	f.Add(uint8(20), uint8(7), bits(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7), bits(1, 2, 3, 4, 5, 6, 7, 8, 9))
	f.Fuzz(func(t *testing.T, order, size uint8, posBits, qBits []byte) {
		if !packedOK {
			t.Skip("no AVX2 on this host")
		}
		defer func() { packedOK = true }()
		next := func(b *[]byte) float64 {
			var word [8]byte
			n := copy(word[:], *b)
			*b = (*b)[n:]
			return math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
		}
		p := int(order) % 21
		in := leafInputs{p: p, center: geom.Vec3{X: next(&posBits), Y: next(&posBits), Z: next(&posBits)}}
		for i := 0; i < int(size)%13+1; i++ {
			in.pos = append(in.pos, geom.Vec3{X: next(&posBits), Y: next(&posBits), Z: next(&posBits)})
			in.q = append(in.q, [4]float64{next(&qBits), next(&qBits), next(&qBits), next(&qBits)})
		}
		rng := rand.New(rand.NewSource(int64(p)))
		for c := range in.m {
			in.m[c], in.l[c] = randomExpansion(p, rng), randomExpansion(p, rng)
		}
		packedOK = true
		got := in.viaLeaf(NewWorkspace(p))
		packedOK = false
		want := in.viaLeaf(NewWorkspace(p))
		for i := range want {
			if !sameBits(math.Float64frombits(got[i]), math.Float64frombits(want[i])) {
				t.Fatalf("p=%d leaf of %d output %d: packed %v, scalar %v", p, len(in.pos), i,
					math.Float64frombits(got[i]), math.Float64frombits(want[i]))
			}
		}
	})
}

// BenchmarkLeafOperators times the leaf entry points on a 32-body leaf,
// packed and scalar, at widths 1 and 4: ns/body is one body's P2M or L2P
// (at width 4, for all four columns).
func BenchmarkLeafOperators(b *testing.B) {
	host := packedOK
	defer func() { packedOK = host }()
	for _, p := range []int{4, 8, 12} {
		in := randomLeaf(p, 32, rand.New(rand.NewSource(44)))
		q1 := make([]float64, len(in.pos))
		w := NewWorkspace(p)
		for _, state := range []string{"scalar", "packed"} {
			for _, op := range []struct {
				name string
				f    func()
			}{
				{"p2m/w=1", func() { w.P2MLeaf(in.m[0], in.center, in.pos, q1) }},
				{"p2m/w=4", func() { w.P2MLeaf4(&in.m, in.center, in.pos, func(i int) [4]float64 { return in.q[i] }) }},
				{"l2p/w=1", func() { w.L2PLeaf(in.l[0], in.center, in.pos, func(int, float64, geom.Vec3) {}) }},
				{"l2p/w=4", func() { w.L2PLeaf4(&in.l, in.center, in.pos, func(int, [4]float64, [4]geom.Vec3) {}) }},
			} {
				b.Run(fmt.Sprintf("p=%d/%s/%s", p, op.name, state), func(b *testing.B) {
					if packedOK = state == "packed"; packedOK && !host {
						b.Skip("no AVX2 on this host")
					}
					op.f() // make the scratch
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						op.f()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(in.pos)), "ns/body")
				})
			}
		}
	}
}
