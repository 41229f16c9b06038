package expansion

import (
	"math"
	"math/rand"
	"testing"

	"afmm/internal/geom"
	"afmm/internal/sphharm"
)

// randCluster returns n charges in a ball of the given radius around center.
func randCluster(rng *rand.Rand, n int, center geom.Vec3, radius float64) ([]geom.Vec3, []float64) {
	pos := make([]geom.Vec3, n)
	q := make([]float64, n)
	for i := range pos {
		for {
			v := geom.Vec3{
				X: 2*rng.Float64() - 1,
				Y: 2*rng.Float64() - 1,
				Z: 2*rng.Float64() - 1,
			}
			if v.Norm() <= 1 {
				pos[i] = center.Add(v.Scale(radius))
				break
			}
		}
		q[i] = rng.Float64() + 0.5
	}
	return pos, q
}

func directPotential(pos []geom.Vec3, q []float64, x geom.Vec3) float64 {
	var phi float64
	for i, p := range pos {
		phi += q[i] / x.Sub(p).Norm()
	}
	return phi
}

func directField(pos []geom.Vec3, q []float64, x geom.Vec3) geom.Vec3 {
	var g geom.Vec3
	for i, p := range pos {
		d := x.Sub(p)
		r := d.Norm()
		g = g.Add(d.Scale(-q[i] / (r * r * r)))
	}
	return g
}

// m2mOracle and l2lOracle are the direct O(p^4) M2M and L2L, the forms
// the tree ran before both went through the translation kernel: the
// oracle ChildShift and the general-offset M2M and L2L are held
// to. M2M translates the child multipole o centered at from into the
// parent expansion m centered at to (accumulating):
//
//	M_j^k += sum_{n<=j, |k-m|<=j-n} O_{j-n}^{k-m} i^{|k|-|m|-|k-m|}
//	          A_n^m A_{j-n}^{k-m} conj(R_n^m(d)) / A_j^k,  d = from - to
func (w *Workspace) m2mOracle(m Expansion, to geom.Vec3, o Expansion, from geom.Vec3) {
	p := m.P
	Regular(p, from.Sub(to), w.reg)
	t := w.t
	for j := 0; j <= p; j++ {
		for k := 0; k <= j; k++ {
			var acc complex128
			for n := 0; n <= j; n++ {
				jn := j - n
				for mm := -n; mm <= n; mm++ {
					km := k - mm
					if km < -jn || km > jn {
						continue
					}
					sign := sphharm.IPow(abs(k) - abs(mm) - abs(km))
					r := get(w.reg, n, -mm) // conj(R_n^m) = R_n^{-m}
					acc += get(o.C, jn, km) * sign *
						complex(t.Anm(n, mm)*t.Anm(jn, km), 0) * r
				}
			}
			m.C[sphharm.Idx(j, k)] += acc / complex(t.Anm(j, k), 0)
		}
	}
}

// l2lOracle translates the parent local expansion o centered at from into
// the child expansion l centered at to (accumulating):
//
//	L_j^k += sum_{n>=j,m} O_n^m i^{|m|-|m-k|-|k|} A_{n-j}^{m-k} A_j^k
//	          R_{n-j}^{m-k}(d) / ((-1)^{n+j} A_n^m),  d = from - to
func (w *Workspace) l2lOracle(l Expansion, to geom.Vec3, o Expansion, from geom.Vec3) {
	p := l.P
	Regular(p, from.Sub(to), w.reg)
	t := w.t
	for j := 0; j <= p; j++ {
		for k := 0; k <= j; k++ {
			ajk := t.Anm(j, k)
			var acc complex128
			for n := j; n <= p; n++ {
				nj := n - j
				neg := 1.0
				if (n+j)%2 == 1 {
					neg = -1.0
				}
				for mm := -n; mm <= n; mm++ {
					mk := mm - k
					if mk < -nj || mk > nj {
						continue
					}
					sign := sphharm.IPow(abs(mm) - abs(mk) - abs(k))
					r := get(w.reg, nj, mk)
					acc += get(o.C, n, mm) * sign *
						complex(t.Anm(nj, mk)*ajk*neg/t.Anm(n, mm), 0) * r
				}
			}
			l.C[sphharm.Idx(j, k)] += acc
		}
	}
}

func TestRegularMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const deg = 8
	out := make([]complex128, sphharm.PackedLen(deg))
	y := make([]complex128, sphharm.PackedLen(deg))
	for trial := 0; trial < 50; trial++ {
		v := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		Regular(deg, v, out)
		r, th, ph := v.Spherical()
		sphharm.EvalY(deg, th, ph, y)
		for n := 0; n <= deg; n++ {
			rn := math.Pow(r, float64(n))
			for m := 0; m <= n; m++ {
				want := complex(rn, 0) * y[sphharm.Idx(n, m)]
				got := out[sphharm.Idx(n, m)]
				scale := math.Max(1, rn)
				if d := got - want; math.Hypot(real(d), imag(d)) > 1e-10*scale {
					t.Fatalf("R_%d^%d(%v) = %v, want %v", n, m, v, got, want)
				}
			}
		}
	}
}

func TestIrregularMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const deg = 8
	out := make([]complex128, sphharm.PackedLen(deg))
	y := make([]complex128, sphharm.PackedLen(deg))
	for trial := 0; trial < 50; trial++ {
		v := geom.Vec3{
			X: rng.NormFloat64() + 1,
			Y: rng.NormFloat64(),
			Z: rng.NormFloat64(),
		}
		Irregular(deg, v, out)
		r, th, ph := v.Spherical()
		sphharm.EvalY(deg, th, ph, y)
		for n := 0; n <= deg; n++ {
			rp := math.Pow(r, -float64(n+1))
			for m := 0; m <= n; m++ {
				want := complex(rp, 0) * y[sphharm.Idx(n, m)]
				got := out[sphharm.Idx(n, m)]
				if d := got - want; math.Hypot(real(d), imag(d)) > 1e-10*math.Max(1, rp) {
					t.Fatalf("S_%d^%d(%v) = %v, want %v", n, m, v, got, want)
				}
			}
		}
	}
}

func TestRegularGradFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const deg = 6
	pl := sphharm.PackedLen(deg)
	val := make([]complex128, pl)
	gx := make([]complex128, pl)
	gy := make([]complex128, pl)
	gz := make([]complex128, pl)
	vp := make([]complex128, pl)
	vm := make([]complex128, pl)
	const h = 1e-6
	for trial := 0; trial < 20; trial++ {
		v := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		RegularGrad(deg, v, val, gx, gy, gz)
		axes := []struct {
			d geom.Vec3
			g []complex128
		}{
			{geom.Vec3{X: h}, gx},
			{geom.Vec3{Y: h}, gy},
			{geom.Vec3{Z: h}, gz},
		}
		for _, ax := range axes {
			Regular(deg, v.Add(ax.d), vp)
			Regular(deg, v.Sub(ax.d), vm)
			for i := 0; i < pl; i++ {
				fd := (vp[i] - vm[i]) / complex(2*h, 0)
				if d := fd - ax.g[i]; math.Hypot(real(d), imag(d)) > 1e-5 {
					t.Fatalf("grad mismatch at idx %d: fd=%v analytic=%v", i, fd, ax.g[i])
				}
			}
		}
	}
}

func TestAdditionTheorem(t *testing.T) {
	// 1/|x-y| = sum_n sum_m conj(R_n^m(x-c)) S_n^m(y-c) for |x-c| < |y-c|.
	rng := rand.New(rand.NewSource(4))
	const deg = 20
	reg := make([]complex128, sphharm.PackedLen(deg))
	irr := make([]complex128, sphharm.PackedLen(deg))
	for trial := 0; trial < 20; trial++ {
		c := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		x := c.Add(randDir(rng).Scale(0.3 * rng.Float64()))
		y := c.Add(randDir(rng).Scale(2 + rng.Float64()))
		Regular(deg, x.Sub(c), reg)
		Irregular(deg, y.Sub(c), irr)
		var sum float64
		for n := 0; n <= deg; n++ {
			i0 := sphharm.Idx(n, 0)
			sum += real(reg[i0])*real(irr[i0]) + imag(reg[i0])*imag(irr[i0])
			for m := 1; m <= n; m++ {
				i := sphharm.Idx(n, m)
				// conj(R) * S, summed with the conjugate pair = 2*Re.
				sum += 2 * (real(reg[i])*real(irr[i]) + imag(reg[i])*imag(irr[i]))
			}
		}
		want := 1 / x.Sub(y).Norm()
		if math.Abs(sum-want) > 1e-8*want {
			t.Fatalf("addition theorem: got %v want %v (x=%v y=%v c=%v)", sum, want, x, y, c)
		}
	}
}

func randDir(rng *rand.Rand) geom.Vec3 {
	for {
		v := geom.Vec3{
			X: 2*rng.Float64() - 1,
			Y: 2*rng.Float64() - 1,
			Z: 2*rng.Float64() - 1,
		}
		if n := v.Norm(); n > 0.1 && n <= 1 {
			return v.Scale(1 / n)
		}
	}
}

func TestP2MEvalMultipole(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const p = 14
	w := NewWorkspace(p)
	center := geom.Vec3{X: 1, Y: -2, Z: 0.5}
	pos, q := randCluster(rng, 30, center, 0.5)
	m := NewExpansion(p)
	for i := range pos {
		w.P2M(m, center, pos[i], q[i])
	}
	for trial := 0; trial < 10; trial++ {
		x := center.Add(randDir(rng).Scale(2 + 2*rng.Float64()))
		got := w.EvalMultipole(m, center, x)
		want := directPotential(pos, q, x)
		if math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Fatalf("multipole eval: got %v want %v at %v", got, want, x)
		}
	}
}

func TestM2MPreservesField(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const p = 14
	w := NewWorkspace(p)
	childC := geom.Vec3{X: 0.25, Y: 0.25, Z: 0.25}
	parentC := geom.Vec3{}
	pos, q := randCluster(rng, 20, childC, 0.2)
	child := NewExpansion(p)
	for i := range pos {
		w.P2M(child, childC, pos[i], q[i])
	}
	parent := NewExpansion(p)
	w.M2M(parent, parentC, child, childC)
	for trial := 0; trial < 10; trial++ {
		x := parentC.Add(randDir(rng).Scale(3 + rng.Float64()))
		got := w.EvalMultipole(parent, parentC, x)
		want := directPotential(pos, q, x)
		if math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Fatalf("M2M: got %v want %v at %v", got, want, x)
		}
	}
}

func TestM2LAndL2P(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const p = 16
	w := NewWorkspace(p)
	srcC := geom.Vec3{X: 4, Y: 0, Z: 0}
	tgtC := geom.Vec3{}
	pos, q := randCluster(rng, 20, srcC, 0.5)
	m := NewExpansion(p)
	for i := range pos {
		w.P2M(m, srcC, pos[i], q[i])
	}
	l := NewExpansion(p)
	w.M2L(l, tgtC, m, srcC)
	for trial := 0; trial < 10; trial++ {
		x := tgtC.Add(randDir(rng).Scale(0.5 * rng.Float64()))
		gotPhi, gotGrad := w.L2P(l, tgtC, x)
		wantPhi := directPotential(pos, q, x)
		wantGrad := directField(pos, q, x)
		if math.Abs(gotPhi-wantPhi) > 1e-5*math.Abs(wantPhi) {
			t.Fatalf("M2L+L2P phi: got %v want %v", gotPhi, wantPhi)
		}
		if gotGrad.Sub(wantGrad).Norm() > 1e-4*wantGrad.Norm() {
			t.Fatalf("M2L+L2P grad: got %v want %v", gotGrad, wantGrad)
		}
	}
}

func TestL2LPreservesField(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const p = 16
	w := NewWorkspace(p)
	srcC := geom.Vec3{X: 4, Y: 1, Z: -2}
	parentC := geom.Vec3{}
	childC := geom.Vec3{X: 0.25, Y: -0.25, Z: 0.25}
	pos, q := randCluster(rng, 20, srcC, 0.5)
	m := NewExpansion(p)
	for i := range pos {
		w.P2M(m, srcC, pos[i], q[i])
	}
	parent := NewExpansion(p)
	w.M2L(parent, parentC, m, srcC)
	child := NewExpansion(p)
	w.L2L(child, childC, parent, parentC)
	for trial := 0; trial < 10; trial++ {
		x := childC.Add(randDir(rng).Scale(0.2 * rng.Float64()))
		gotPhi, _ := w.L2P(child, childC, x)
		viaParent, _ := w.L2P(parent, parentC, x)
		wantPhi := directPotential(pos, q, x)
		if math.Abs(gotPhi-viaParent) > 1e-9*math.Abs(viaParent) {
			t.Fatalf("L2L inconsistent with parent eval: %v vs %v", gotPhi, viaParent)
		}
		if math.Abs(gotPhi-wantPhi) > 1e-5*math.Abs(wantPhi) {
			t.Fatalf("L2L: got %v want %v", gotPhi, wantPhi)
		}
	}
}

func TestP2LMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const p = 16
	w := NewWorkspace(p)
	tgtC := geom.Vec3{}
	pos, q := randCluster(rng, 15, geom.Vec3{X: 5}, 0.5)
	l := NewExpansion(p)
	for i := range pos {
		w.P2L(l, tgtC, pos[i], q[i])
	}
	for trial := 0; trial < 10; trial++ {
		x := tgtC.Add(randDir(rng).Scale(0.4 * rng.Float64()))
		got, _ := w.L2P(l, tgtC, x)
		want := directPotential(pos, q, x)
		if math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Fatalf("P2L: got %v want %v", got, want)
		}
	}
}

func TestTruncationErrorDecaysWithOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	srcC := geom.Vec3{X: 4}
	pos, q := randCluster(rng, 10, srcC, 1.0)
	x := geom.Vec3{X: 0.5, Y: 0.5, Z: 0}
	want := directPotential(pos, q, x)
	prev := math.Inf(1)
	for _, p := range []int{2, 4, 8, 12} {
		w := NewWorkspace(p)
		m := NewExpansion(p)
		for i := range pos {
			w.P2M(m, srcC, pos[i], q[i])
		}
		l := NewExpansion(p)
		w.M2L(l, geom.Vec3{}, m, srcC)
		got, _ := w.L2P(l, geom.Vec3{}, x)
		err := math.Abs(got - want)
		if err > prev*1.05 {
			t.Fatalf("error did not decay with p: p=%d err=%v prev=%v", p, err, prev)
		}
		prev = err
	}
	if prev > 1e-6*math.Abs(want) {
		t.Fatalf("p=12 error too large: %v (phi=%v)", prev, want)
	}
}
