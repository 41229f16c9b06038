package stokes

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"afmm/internal/distrib"
	"afmm/internal/kernels"
	"afmm/internal/particle"
	"afmm/internal/sched"
)

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

// TestDirectOffKeepsParentBits: the Stokes solver sets no threshold on its
// tree, so it sums no accepted pair directly and reproduces the
// velocities of the commit before the per-pair operator choice existed
// (uniform cube N=1200 seed 7, forces seed 8, p=6, S=16) — as re-recorded
// when M2M and L2L moved onto the translation kernel and when the near
// field became mutual (each unordered pair once), the two changes of bits
// since.
func TestDirectOffKeepsParentBits(t *testing.T) {
	sys := distrib.UniformCube(1200, 1, 7)
	randomForces(sys, 8)
	s := NewSolver(sys, Config{P: 6, S: 16, Kernel: kernels.Stokeslet{Mu: 1, Eps: 1e-3}})
	s.Solve()
	if sch := s.Tree.NearField(); sch.DirectPairs != 0 {
		t.Fatalf("Stokes solver selected %d pairs at its default threshold", sch.DirectPairs)
	}
	const parent uint64 = 0xa6bd0bc517be3573
	if h := accHash(sys); h != parent {
		t.Fatalf("velocities hash %#x, parent commit %#x", h, parent)
	}
}

// TestDirectPairsBitIdenticalAcrossPaths: the mechanism is the gravity
// solver's, so with a threshold set on the tree every Stokes configuration
// skips the same V entries in the four-column translation and sums them in
// the same near-field rows: velocities are exactly equal across
// configurations, agree with the per-pair recursive reference to rounding,
// and are no further from direct summation than with the mechanism off.
func TestDirectPairsBitIdenticalAcrossPaths(t *testing.T) {
	base := distrib.Plummer(1500, 1, 1, 4)
	randomForces(base, 5)
	k := kernels.Stokeslet{Mu: 1, Eps: 1e-4}
	solve := func(directK int64, mut func(cfg *Config)) *Solver {
		cfg := Config{P: 6, S: 16, Kernel: k, Pool: sched.NewPool(3)}
		mut(&cfg)
		s := NewSolver(base.Clone(), cfg)
		s.Tree.SetDirectK(directK)
		s.Solve()
		return s
	}
	const directK = 150
	ref := solve(directK, func(cfg *Config) {})
	sch := ref.Tree.NearField()
	if ops := ref.Tree.CountOps(); 10*sch.DirectPairs < ops.M2L {
		t.Fatalf("only %d direct pairs beside %d translations", sch.DirectPairs, ops.M2L)
	}
	want := accHash(ref.Sys)
	for name, mut := range map[string]func(cfg *Config){
		"vgpu":       func(cfg *Config) { cfg.NumGPUs = 2 },
		"one-worker": func(cfg *Config) { cfg.Pool = sched.NewPool(1) },
	} {
		if h := accHash(solve(directK, mut).Sys); h != want {
			t.Fatalf("%s: hash %#x, cpu %#x", name, h, want)
		}
	}
	rec := NewSolver(base.Clone(), Config{P: 6, S: 16, Kernel: k})
	rec.Tree.SetDirectK(directK)
	perPairStep(rec)
	if e := velErr(rec.Sys.AccInInputOrder(), ref.Sys.AccInInputOrder()); e > 1e-9 {
		t.Fatalf("recursive reference differs from the solve by %g", e)
	}
	exact := DirectVelocities(ref.Sys, k)
	off := solve(0, func(cfg *Config) {})
	eOn, eOff := velErr(ref.Sys.Acc, exact), velErr(off.Sys.Acc, DirectVelocities(off.Sys, k))
	if eOn > eOff {
		t.Fatalf("error vs direct summation %g with direct pairs, %g without", eOn, eOff)
	}
}
