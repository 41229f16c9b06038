package core

import (
	"math"
	"testing"

	"afmm/internal/costmodel"
	"afmm/internal/distrib"
	"afmm/internal/geom"
	"afmm/internal/kernels"
	"afmm/internal/octree"
	"afmm/internal/particle"
)

// rmsAccError returns the RMS relative acceleration error of the solver's
// result against direct summation.
func rmsAccError(s *Solver) float64 {
	_, accRef := AllPairsReference(s.Sys, s.Cfg.Kernel)
	var num, den float64
	for i := range accRef {
		num += s.Sys.Acc[i].Sub(accRef[i]).Norm2()
		den += accRef[i].Norm2()
	}
	return math.Sqrt(num / den)
}

func TestSolveMatchesDirectPlummer(t *testing.T) {
	sys := distrib.Plummer(600, 1, 1, 21)
	s := NewSolver(sys, Config{P: 10, S: 16, NumGPUs: 2})
	s.Solve()
	if err := s.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if e := rmsAccError(s); e > 2e-4 {
		t.Fatalf("acceleration RMS error %g too large", e)
	}
}

func TestSolveMatchesDirectUniform(t *testing.T) {
	sys := distrib.UniformCube(500, 1, 33)
	s := NewSolver(sys, Config{P: 10, S: 20, Mode: octree.Uniform, NumGPUs: 1})
	s.Solve()
	if e := rmsAccError(s); e > 2e-4 {
		t.Fatalf("uniform FMM acceleration RMS error %g too large", e)
	}
}

func TestSolveCPUOnlyMatchesGPUPath(t *testing.T) {
	sysA := distrib.Plummer(400, 1, 1, 5)
	sysB := sysA.Clone()
	a := NewSolver(sysA, Config{P: 8, S: 16})
	b := NewSolver(sysB, Config{P: 8, S: 16, NumGPUs: 3})
	a.Solve()
	b.Solve()
	accA := a.Sys.AccInInputOrder()
	accB := b.Sys.AccInInputOrder()
	for i := range accA {
		if accA[i].Sub(accB[i]).Norm() > 1e-12*(1+accA[i].Norm()) {
			t.Fatalf("CPU-only and GPU paths disagree at body %d: %v vs %v",
				i, accA[i], accB[i])
		}
	}
}

func TestSolveAccuracyImprovesWithP(t *testing.T) {
	var prev float64 = math.Inf(1)
	for _, p := range []int{4, 8, 12} {
		sys := distrib.Plummer(400, 1, 1, 77)
		s := NewSolver(sys, Config{P: p, S: 16, NumGPUs: 1})
		s.Solve()
		e := rmsAccError(s)
		if e > prev*1.1 {
			t.Fatalf("error did not decrease with p=%d: %g (prev %g)", p, e, prev)
		}
		prev = e
	}
	if prev > 5e-5 {
		t.Fatalf("p=12 error %g too large", prev)
	}
}

func TestSofteningConsistency(t *testing.T) {
	// With softening, near-field pairs use the softened kernel while the
	// far field is unsoftened; for well-separated pairs the difference is
	// negligible. Verify total forces still track the softened direct sum.
	sys := distrib.Plummer(500, 1, 1, 13)
	k := kernels.Gravity{G: 1, Softening: 1e-3}
	s := NewSolver(sys, Config{P: 10, S: 16, Kernel: k, NumGPUs: 1})
	s.Solve()
	if e := rmsAccError(s); e > 3e-4 {
		t.Fatalf("softened solve error %g", e)
	}
}

func TestMomentumNearlyConserved(t *testing.T) {
	// Total force should vanish (Newton's third law holds exactly for
	// direct pairs and to truncation order for the far field).
	sys := distrib.Plummer(800, 1, 1, 3)
	s := NewSolver(sys, Config{P: 8, S: 32, NumGPUs: 2})
	s.Solve()
	var f geom.Vec3
	var mag float64
	for i := range sys.Acc {
		f = f.Add(sys.Acc[i].Scale(sys.Mass[i]))
		mag += sys.Acc[i].Norm() * sys.Mass[i]
	}
	if f.Norm() > 1e-4*mag {
		t.Fatalf("net force %v too large relative to %v", f.Norm(), mag)
	}
}

func TestStepTimesSane(t *testing.T) {
	sys := distrib.Plummer(2000, 1, 1, 8)
	s := NewSolver(sys, Config{P: 8, S: 32, NumGPUs: 2})
	st := s.Solve()
	if st.CPUTime <= 0 || st.GPUTime <= 0 {
		t.Fatalf("nonpositive virtual times: %+v", st)
	}
	if st.Compute != math.Max(st.CPUTime, st.GPUTime) {
		t.Fatalf("Compute != max(CPU,GPU): %+v", st)
	}
	if st.GPUEff <= 0 || st.GPUEff > 1 {
		t.Fatalf("GPU efficiency out of range: %v", st.GPUEff)
	}
	if st.CPUEff <= 0 || st.CPUEff > 1.01 {
		t.Fatalf("CPU efficiency out of range: %v", st.CPUEff)
	}
}

func TestPredictionMatchesObservationOnStableTree(t *testing.T) {
	// After observing a solve, predicting the same unchanged tree must
	// reproduce the observed CPU and GPU times closely (the coefficients
	// were derived from exactly these counts).
	sys := distrib.Plummer(3000, 1, 1, 15)
	s := NewSolver(sys, Config{P: 8, S: 48, NumGPUs: 2})
	st := s.Solve()
	cpu, gpu := s.Predict()
	if rel(cpu, st.CPUTime) > 1e-6 {
		t.Fatalf("CPU prediction %g vs observed %g", cpu, st.CPUTime)
	}
	if rel(gpu, st.GPUTime) > 1e-6 {
		t.Fatalf("GPU prediction %g vs observed %g", gpu, st.GPUTime)
	}
}

func TestSShiftsWorkBetweenCPUAndGPU(t *testing.T) {
	// The basic load-balancing premise (Fig. 3): growing S moves work from
	// the far field (CPU) to the near field (GPU).
	var prevP2P int64 = -1
	var prevM2L int64 = 1 << 62
	for _, S := range []int{8, 32, 128, 512} {
		sys := distrib.Plummer(4000, 1, 1, 99)
		s := NewSolver(sys, Config{P: 6, S: S, NumGPUs: 1, DryRun: true})
		st := s.Solve()
		if st.Counts[costmodel.P2P] < prevP2P {
			t.Fatalf("P2P count decreased when S grew to %d", S)
		}
		if st.Counts[costmodel.M2L] > prevM2L {
			t.Fatalf("M2L count increased when S grew to %d", S)
		}
		prevP2P = st.Counts[costmodel.P2P]
		prevM2L = st.Counts[costmodel.M2L]
	}
}

func rel(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestOffloadEndpointsShiftsTime(t *testing.T) {
	// The §VIII.E extension: moving P2M/L2P to the devices must leave
	// the numerics identical while shifting virtual time from the CPU to
	// the GPU side.
	sysA := distrib.Plummer(1500, 1, 1, 4)
	sysB := sysA.Clone()
	mk := func(sys *particle.System, offload bool) (*Solver, StepTimes) {
		cfg := Config{P: 6, S: 16, NumGPUs: 2, OffloadEndpoints: offload}
		cfg.CPU.Cores = 4
		s := NewSolver(sys, cfg)
		return s, s.Solve()
	}
	_, plain := mk(sysA, false)
	_, off := mk(sysB, true)
	accA := sysA.AccInInputOrder()
	accB := sysB.AccInInputOrder()
	for i := range accA {
		if accA[i].Sub(accB[i]).Norm() > 1e-12*(1+accA[i].Norm()) {
			t.Fatalf("offload changed numerics at body %d", i)
		}
	}
	if off.CPUTime >= plain.CPUTime {
		t.Fatalf("offload did not reduce CPU time: %v vs %v", off.CPUTime, plain.CPUTime)
	}
	if off.GPUTime <= plain.GPUTime {
		t.Fatalf("offload did not charge the GPU: %v vs %v", off.GPUTime, plain.GPUTime)
	}
}

func TestEstimateErrorTracksOrderAndMAC(t *testing.T) {
	mk := func(p int, mac float64) ErrorBound {
		sys := distrib.Plummer(2000, 1, 1, 23)
		s := NewSolver(sys, Config{P: p, S: 32, MAC: mac, NumGPUs: 1, DryRun: true})
		s.Solve()
		return s.EstimateError()
	}
	loose := mk(4, 0.6)
	tightP := mk(10, 0.6)
	tightMAC := mk(4, 0.4)
	if loose.Pairs == 0 || loose.MaxPair <= 0 {
		t.Fatalf("degenerate bound: %+v", loose)
	}
	if tightP.MaxPair >= loose.MaxPair {
		t.Fatalf("higher order did not tighten bound: %g vs %g",
			tightP.MaxPair, loose.MaxPair)
	}
	if tightMAC.MaxPair >= loose.MaxPair {
		t.Fatalf("stricter MAC did not tighten bound: %g vs %g",
			tightMAC.MaxPair, loose.MaxPair)
	}
	if loose.MeanPair > loose.MaxPair {
		t.Fatalf("mean %g above max %g", loose.MeanPair, loose.MaxPair)
	}
}

func TestEvaluateAtMatchesDirect(t *testing.T) {
	sys := distrib.Plummer(800, 1, 1, 29)
	s := NewSolver(sys, Config{P: 10, S: 16, NumGPUs: 1})
	s.Solve()
	// Probe points: some inside the cloud, some outside.
	probes := []geom.Vec3{
		{X: 0.1, Y: 0.2, Z: -0.1},
		{X: 1.5, Y: -0.7, Z: 0.4},
		{X: 5, Y: 5, Z: 5},
		{X: -3, Y: 0.1, Z: 0.1},
	}
	phi, field := s.EvaluateAt(probes)
	for i, x := range probes {
		var wantPhi float64
		var wantF geom.Vec3
		for j := range sys.Pos {
			p, a := s.Cfg.Kernel.Accumulate(x, sys.Pos[j], sys.Mass[j])
			wantPhi += p
			wantF = wantF.Add(a)
		}
		if rel(phi[i], wantPhi) > 1e-4 {
			t.Fatalf("probe %d: phi %g want %g", i, phi[i], wantPhi)
		}
		if field[i].Sub(wantF).Norm() > 1e-4*(1+wantF.Norm()) {
			t.Fatalf("probe %d: field %v want %v", i, field[i], wantF)
		}
	}
}

func TestEvaluateAtEmptyInputs(t *testing.T) {
	sys := distrib.Plummer(100, 1, 1, 31)
	s := NewSolver(sys, Config{P: 6, S: 8})
	s.Solve()
	phi, field := s.EvaluateAt(nil)
	if len(phi) != 0 || len(field) != 0 {
		t.Fatal("empty probe list produced output")
	}
}

func TestSolverRotationEquivariance(t *testing.T) {
	// Physics invariance: rotating all bodies by a rigid rotation must
	// rotate the accelerations (up to FMM truncation, since the octree is
	// not rotation invariant).
	sysA := distrib.Plummer(600, 1, 1, 37)
	sysB := sysA.Clone()
	// Rotate B by 90 degrees about z: (x,y,z) -> (-y,x,z).
	for i := range sysB.Pos {
		p := sysB.Pos[i]
		sysB.Pos[i] = geom.Vec3{X: -p.Y, Y: p.X, Z: p.Z}
	}
	a := NewSolver(sysA, Config{P: 10, S: 16, NumGPUs: 1})
	b := NewSolver(sysB, Config{P: 10, S: 16, NumGPUs: 1})
	a.Solve()
	b.Solve()
	accA := sysA.AccInInputOrder()
	accB := sysB.AccInInputOrder()
	var num, den float64
	for i := range accA {
		want := geom.Vec3{X: -accA[i].Y, Y: accA[i].X, Z: accA[i].Z}
		num += accB[i].Sub(want).Norm2()
		den += want.Norm2()
	}
	if e := math.Sqrt(num / den); e > 5e-5 {
		t.Fatalf("rotation equivariance violated: RMS %g", e)
	}
}

func BenchmarkEvaluateAtProbes(b *testing.B) {
	sys := distrib.Plummer(20000, 1, 1, 42)
	s := NewSolver(sys, Config{P: 6, S: 64, NumGPUs: 1})
	s.Solve()
	probes := make([]geom.Vec3, 1000)
	for i := range probes {
		probes[i] = geom.Vec3{X: float64(i%10) - 5, Y: float64(i%7) - 3, Z: float64(i%13) - 6}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EvaluateAt(probes)
	}
	b.ReportMetric(float64(len(probes)), "probes")
}

// skewedSystem builds a distribution with a deliberately heavy near-field
// tail: most bodies in one dense clump that bottoms out at MaxDepth (so a
// few leaves carry most of the P2P interactions) plus a sparse halo.
func skewedSystem(n int, seed int64) *particle.System {
	sys := distrib.UniformCube(n, 10, seed)
	for i := 0; i < n*9/10; i++ {
		sys.Pos[i] = sys.Pos[i].Scale(1e-3) // 90% of bodies inside a tiny core
	}
	return sys
}

func BenchmarkNearFieldSkewed(b *testing.B) {
	sys := skewedSystem(8000, 3)
	s := NewSolver(sys, Config{P: 4, S: 64, MaxDepth: 6})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve()
	}
}
