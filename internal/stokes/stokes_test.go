package stokes

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"afmm/internal/core"
	"afmm/internal/distrib"
	"afmm/internal/fault"
	"afmm/internal/geom"
	"afmm/internal/kernels"
	"afmm/internal/particle"
	"afmm/internal/telemetry"
	"afmm/internal/vgpu"
)

func randomForces(sys *particle.System, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range sys.Aux {
		sys.Aux[i] = geom.Vec3{
			X: rng.NormFloat64(),
			Y: rng.NormFloat64(),
			Z: rng.NormFloat64(),
		}
	}
}

func velErr(got, want []geom.Vec3) float64 {
	var num, den float64
	for i := range want {
		num += got[i].Sub(want[i]).Norm2()
		den += want[i].Norm2()
	}
	return math.Sqrt(num / den)
}

func TestHarmonicDecompositionSingleSource(t *testing.T) {
	// u_i = Phi_i - x_j d_i Phi_j + d_i Psi must reproduce the singular
	// Stokeslet for a single well-separated source (analytic identity).
	k := kernels.Stokeslet{Mu: 1.3, Eps: 0}
	y := geom.Vec3{X: 0.2, Y: -0.4, Z: 0.1}
	f := geom.Vec3{X: 1.1, Y: -0.7, Z: 0.3}
	x := geom.Vec3{X: 3, Y: 2, Z: -1}
	r := x.Sub(y)
	rn := r.Norm()
	// Direct evaluation of the decomposition terms.
	phi := func(q float64) float64 { return q / rn }
	dphi := func(q float64) geom.Vec3 { return r.Scale(-q / (rn * rn * rn)) }
	p0, g0 := phi(f.X), dphi(f.X)
	p1, g1 := phi(f.Y), dphi(f.Y)
	p2, g2 := phi(f.Z), dphi(f.Z)
	gp := dphi(f.Dot(y))
	c0 := 1 / (8 * math.Pi * k.Mu)
	u := geom.Vec3{
		X: p0 - (x.X*g0.X + x.Y*g1.X + x.Z*g2.X) + gp.X,
		Y: p1 - (x.X*g0.Y + x.Y*g1.Y + x.Z*g2.Y) + gp.Y,
		Z: p2 - (x.X*g0.Z + x.Y*g1.Z + x.Z*g2.Z) + gp.Z,
	}.Scale(c0)
	want := k.SingularVelocity(x, y, f)
	if u.Sub(want).Norm() > 1e-12*want.Norm() {
		t.Fatalf("decomposition identity broken: %v vs %v", u, want)
	}
}

func TestSolveMatchesDirect(t *testing.T) {
	sys := distrib.UniformCube(400, 1, 4)
	randomForces(sys, 5)
	k := kernels.Stokeslet{Mu: 1, Eps: 5e-4}
	s := NewSolver(sys, Config{P: 10, S: 24, Kernel: k, NumGPUs: 2})
	s.Solve()
	want := DirectVelocities(sys, k)
	if e := velErr(sys.Acc, want); e > 2e-3 {
		t.Fatalf("stokes FMM error %g vs direct", e)
	}
}

func TestSolveCPUOnlyMatchesGPU(t *testing.T) {
	sysA := distrib.UniformCube(300, 1, 9)
	randomForces(sysA, 10)
	sysB := sysA.Clone()
	k := kernels.Stokeslet{Mu: 0.7, Eps: 1e-3}
	a := NewSolver(sysA, Config{P: 8, S: 16, Kernel: k})
	b := NewSolver(sysB, Config{P: 8, S: 16, Kernel: k, NumGPUs: 2})
	a.Solve()
	b.Solve()
	va := a.Sys.AccInInputOrder()
	vb := b.Sys.AccInInputOrder()
	for i := range va {
		if va[i].Sub(vb[i]).Norm() > 1e-12*(1+va[i].Norm()) {
			t.Fatalf("paths disagree at %d: %v vs %v", i, va[i], vb[i])
		}
	}
}

func TestAccuracyImprovesWithP(t *testing.T) {
	k := kernels.Stokeslet{Mu: 1, Eps: 1e-4}
	var prev = math.Inf(1)
	for _, p := range []int{4, 8, 12} {
		sys := distrib.UniformCube(300, 1, 12)
		randomForces(sys, 13)
		s := NewSolver(sys, Config{P: p, S: 16, Kernel: k, NumGPUs: 1})
		s.Solve()
		want := DirectVelocities(sys, k)
		e := velErr(sys.Acc, want)
		if e > prev*1.2 {
			t.Fatalf("error grew with p=%d: %g (prev %g)", p, e, prev)
		}
		prev = e
	}
	if prev > 2e-4 {
		t.Fatalf("p=12 error %g", prev)
	}
}

func TestM2LCostIsFourTimesGravity(t *testing.T) {
	// The paper's §IX.B premise: the Stokes far-field pass count makes
	// its M2L cost ~4x the gravitational problem on the same tree.
	sys := distrib.UniformCube(2000, 1, 21)
	randomForces(sys, 22)
	s := NewSolver(sys, Config{P: 6, S: 32, NumGPUs: 1, SkipFarField: true})
	st := s.Solve()
	// A gravity solve on the same shape costs base[M2L] per pair; the
	// Stokes graph charges 4x. Verify through the observed coefficient.
	mdl := s.Model.Coef
	base := s.Cfg.CPU.Base
	// Observed per-application M2L cost should be ~4x base (divided by
	// cores=1, wall-clock attribution makes it approximate).
	ratio := mdl[2] / base[2] // costmodel.M2L == 2
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("M2L observed/base ratio = %v, want ~4", ratio)
	}
	if st.Compute <= 0 {
		t.Fatal("no timing")
	}
}

// TestFieldIsTheStokesProfile: the profile the benchmark's replay prices
// the Stokes graph with is the one the solver reads from its field.
func TestFieldIsTheStokesProfile(t *testing.T) {
	f := NewField(nil, nil, 4, kernels.Stokeslet{}, nil)
	got := core.Profile{
		FarFieldPasses: f.Width(),
		P2PCostFactor:  float64(f.PairFlops()) / float64(kernels.FlopsPerGravityInteraction),
	}
	if got != core.StokesProfile() {
		t.Fatalf("field profile %+v, core.StokesProfile %+v", got, core.StokesProfile())
	}
}

func TestRingBoundaryForces(t *testing.T) {
	sys := particle.New(64)
	b := Ring(sys, 0, 64, geom.Vec3{}, 1, 2, 10)
	// Stretch the ring radially; elastic forces must pull inward and sum
	// to zero.
	for i := range sys.Pos {
		sys.Pos[i] = sys.Pos[i].Scale(1.3)
	}
	ClearForces(sys)
	b.AccumulateForces(sys)
	var total geom.Vec3
	inward := 0
	for i := range sys.Aux {
		total = total.Add(sys.Aux[i])
		if sys.Aux[i].Dot(sys.Pos[i]) < 0 {
			inward++
		}
	}
	if total.Norm() > 1e-9 {
		t.Fatalf("net elastic force %v nonzero", total)
	}
	if inward < 60 {
		t.Fatalf("only %d/64 forces point inward on a stretched ring", inward)
	}
}

func TestFiberRelaxesTowardStraight(t *testing.T) {
	// A bent fiber in Stokes flow should reduce its elastic energy over a
	// few explicit steps.
	n := 48
	sys := particle.New(n)
	b := Fiber(sys, 0, n, geom.Vec3{X: -1}, geom.Vec3{X: 1}, 50)
	// Perturb into an arc.
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n-1)
		sys.Pos[i].Y = 0.3 * math.Sin(math.Pi*f)
	}
	k := kernels.Stokeslet{Mu: 1, Eps: 0.02}
	energy := func() float64 {
		loc := make([]int, n)
		for st, id := range sys.Index {
			loc[id] = st
		}
		var e float64
		for _, l := range b.Links {
			r := sys.Pos[loc[l.B]].Sub(sys.Pos[loc[l.A]]).Norm()
			e += 0.5 * b.Stiffness * (r - l.Rest) * (r - l.Rest)
		}
		return e
	}
	s := NewSolver(sys, Config{P: 6, S: 8, Kernel: k})
	e0 := energy()
	dt := 1e-3
	for step := 0; step < 20; step++ {
		ClearForces(sys)
		b.AccumulateForces(sys)
		s.Refill()
		s.Solve()
		for i := range sys.Pos {
			sys.Pos[i] = sys.Pos[i].Add(sys.Acc[i].Scale(dt))
		}
	}
	if e1 := energy(); e1 >= e0 {
		t.Fatalf("elastic energy did not decrease: %g -> %g", e0, e1)
	}
}

func TestHelicalChiralityCouplesRotationToAxialFlow(t *testing.T) {
	// The defining property of helical swimming (paper ref. [15]):
	// rotating a helix about its axis pumps fluid axially, and the
	// direction flips with handedness.
	axialFlow := func(handedness int) float64 {
		const n = 240
		sys := particle.New(n)
		Helix(sys, 0, n, geom.Vec3{Z: -0.5}, 0.3, 0.4, 3, handedness, 1)
		k := kernels.Stokeslet{Mu: 1, Eps: 0.03}
		s := NewSolver(sys, Config{P: 6, S: 16, Kernel: k})
		ClearForces(sys)
		RotletForces(sys, 0, n, geom.Vec3{Z: 1}, 1.0)
		s.Solve()
		var uz float64
		for i := range sys.Acc {
			uz += sys.Acc[i].Z
		}
		return uz / float64(n)
	}
	right := axialFlow(+1)
	left := axialFlow(-1)
	if math.Abs(right) < 1e-6 {
		t.Fatalf("no axial pumping from a rotating helix: %g", right)
	}
	if right*left > 0 {
		t.Fatalf("axial flow did not flip with handedness: %g vs %g", right, left)
	}
	if math.Abs(right+left) > 0.1*math.Abs(right) {
		t.Fatalf("mirror helices not antisymmetric: %g vs %g", right, left)
	}
}

func TestRigidSphereMobilityApproximatesStokesDrag(t *testing.T) {
	// Classic regularized-Stokeslet validation: markers on a sphere of
	// radius R driven by a total force F move with velocity ~ F/(6 pi mu R)
	// (the Stokes mobility), up to regularization and discretization
	// corrections.
	const n = 800
	const R = 1.0
	const mu = 1.0
	sys := distrib.UniformShell(n, R, 41)
	ftot := geom.Vec3{Z: 1}
	for i := range sys.Aux {
		sys.Aux[i] = ftot.Scale(1.0 / n)
	}
	k := kernels.Stokeslet{Mu: mu, Eps: 0.05} // blob ~ marker spacing
	s := NewSolver(sys, Config{P: 8, S: 32, Kernel: k})
	s.Solve()
	var u geom.Vec3
	for i := range sys.Acc {
		u = u.Add(sys.Acc[i])
	}
	u = u.Scale(1.0 / n)
	want := ftot.Scale(1 / (6 * math.Pi * mu * R))
	if u.Z <= 0 {
		t.Fatalf("sphere moves against the force: %v", u)
	}
	if rel := math.Abs(u.Z-want.Z) / want.Z; rel > 0.25 {
		t.Fatalf("mobility off by %.0f%%: got %v want %v", 100*rel, u.Z, want.Z)
	}
	// Transverse drift should vanish by symmetry.
	if math.Hypot(u.X, u.Y) > 0.05*u.Z {
		t.Fatalf("asymmetric drift: %v", u)
	}
}

// TestStepRecordParity: a Stokes step is the gravity driver's step, so it
// reports what gravity's does — per-worker busy time and the device
// efficiency on the record, the step graph's statistics, and a poisoned
// accumulator as a typed *core.ValidationError.
func TestStepRecordParity(t *testing.T) {
	sch, err := fault.Parse("gpu0:corrupt@step1")
	if err != nil {
		t.Fatal(err)
	}
	sys := distrib.UniformCube(2000, 1, 3)
	randomForces(sys, 5)
	rec := telemetry.New(telemetry.Options{Keep: true})
	s := NewSolver(sys, Config{
		P: 4, S: 32, NumGPUs: 2, Validate: true,
		Faults: fault.NewInjector(sch), Watchdog: vgpu.WatchdogConfig{ChunkRows: 4},
	})
	s.SetRecorder(rec)
	rec.StartStep(0)
	st, err := s.SolveChecked()
	rec.EndStep()
	if err != nil {
		t.Fatalf("step 0 (pre-fault) failed: %v", err)
	}
	if st.GPUEff <= 0 || st.GPUEff > 1 {
		t.Fatalf("GPU efficiency %v", st.GPUEff)
	}
	if gs := s.TaskGraphStats(); gs.Nodes <= 0 {
		t.Fatalf("no step-graph statistics: %+v", gs)
	}
	if r := rec.Steps()[0]; len(r.WorkerBusyNs) == 0 || r.GPUEff != st.GPUEff {
		t.Fatalf("step record: worker busy %v, gpu_eff %v (solve reported %v)", r.WorkerBusyNs, r.GPUEff, st.GPUEff)
	}
	_, err = s.SolveChecked()
	var verr *core.ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("poisoned step: want *core.ValidationError, got %T: %v", err, err)
	}
	if !math.IsNaN(verr.Acc.X) || verr.Phi != 0 {
		t.Fatalf("body %d: want NaN velocity and the untouched zero potential, got acc=%v phi=%g", verr.Body, verr.Acc, verr.Phi)
	}
}

// TestNearRowMatchesPerSpanScalar is core's test of the same name for the
// Stokeslet field: rows through the span buffer, flushes and ghost copies
// included, equal P2PScalar entry by entry, bit for bit; and a row
// allocates nothing.
func TestNearRowMatchesPerSpanScalar(t *testing.T) {
	sys := distrib.UniformCube(3000, 1, 9)
	randomForces(sys, 10)
	s := NewSolver(sys, Config{P: 4, S: 16})
	s.Solve()
	f := s.Field.(*Field)
	sch := s.Tree.NearField()
	ghosts := make([]core.GhostLeaf, len(s.Tree.Nodes))
	for ni := range s.Tree.Nodes {
		if ni%3 == 0 && s.Tree.Nodes[ni].IsVisibleLeaf() {
			ghosts[ni] = f.PackGhost(int32(ni))
		}
	}
	vel := slices.Clone(sys.Acc)
	long := 0
	for r := 0; r < sch.Rows(); r++ {
		if len(sch.Row(r)) > core.RowSpans {
			long++
		}
		f.NearRow(sch, r, ghosts)
		tn := &s.Tree.Nodes[sch.Leaves[r]]
		for k := sch.RowPtr[r]; k < sch.RowPtr[r+1]; k++ {
			lo, hi := sch.SrcStart[k], sch.SrcEnd[k]
			f.Kernel.P2PScalar(sys.Pos[tn.Start:tn.End], vel[tn.Start:tn.End], sys.Pos[lo:hi], sys.Aux[lo:hi])
		}
	}
	if long == 0 {
		t.Fatalf("no row holds more than %d entries: the buffer never flushed", core.RowSpans)
	}
	for i := range vel {
		for c, v := range [3]float64{vel[i].X, vel[i].Y, vel[i].Z} {
			if w := [3]float64{sys.Acc[i].X, sys.Acc[i].Y, sys.Acc[i].Z}[c]; math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("body %d: NearRow %v, per-span scalar %v", i, sys.Acc[i], vel[i])
			}
		}
	}
	for _, g := range [][]core.GhostLeaf{nil, ghosts} {
		sweep := func() {
			for r := 0; r < sch.Rows(); r++ {
				f.NearRow(sch, r, g)
			}
		}
		if a := testing.AllocsPerRun(3, sweep); a != 0 {
			t.Errorf("ghosts %v: the near-field rows allocate %v times, want 0", g != nil, a)
		}
	}
}
