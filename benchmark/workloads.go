package main

import (
	"fmt"
	"math/rand"
	"time"

	"afmm/internal/balance"
	"afmm/internal/core"
	"afmm/internal/distrib"
	"afmm/internal/dmem"
	"afmm/internal/geom"
	"afmm/internal/kernels"
	"afmm/internal/octree"
	"afmm/internal/particle"
	"afmm/internal/sched"
	"afmm/internal/sim"
	"afmm/internal/stokes"
	"afmm/internal/telemetry"
	"afmm/internal/vcpu"
	"afmm/internal/vgpu"
)

// kind names the public run loop a workload is driven through.
type kind int

const (
	kindGravity kind = iota // core.Solver under sim.RunGravity
	kindStokes              // stokes.Solver under sim.RunStokes
	kindDmem                // dmem.Solver under RunWith
)

// workload is one fixed set of inputs. Everything but the seed is part of
// the benchmark's definition: later issues refer to these names, so a
// change to any field is its own benchmark PR.
type workload struct {
	name string
	why  string
	kind kind
	n    int
	p, s int
	dt   float64
	// soften is the gravitational softening length (gravity workloads).
	soften float64
	// steps is the number of timed steps in one round. With coldSetup the
	// round runs one more step first, the cold one, and counts it as
	// set-up; grav-dyn-hetero is timed from step 0 because its first steps
	// (the balancer's search) are what it exists to measure.
	steps     int
	coldSetup bool
	// pinS holds S fixed the way afmm-sim -pin-s does; otherwise the full
	// three-state balancer runs.
	pinS bool
	// errCeil fails the run when force_rel_err exceeds it: twice the value
	// measured when the benchmark was defined.
	errCeil float64
	// draw generates the base configuration from baseSeed; jitter is how
	// far -seed displaces each body of it (see bodies). grav-dyn-hetero has
	// none: its balancer rebuilds the tree around a fresh bounding cube
	// several times per run, so the last bit of any seed-dependence ends up
	// in that cube and scatters every count, the allocation volume and the
	// step time by 30-40%.
	jitter float64
	draw   func(w *workload) *particle.System
}

// baseSeed is the generator seed of every workload's base configuration:
// one fixed draw, as much part of the workload as N.
const baseSeed = 42

// bodies returns the workload's inputs for seed: the base draw with every
// body displaced by up to w.jitter per axis, except the (at most six)
// bodies that span the bounding cube. Same seed, same bodies; another seed,
// bodies that differ in every coordinate but sit in bit-identical tree
// cells, so that list topology, M2L classes and table coverage stay put and
// only a handful of bodies change leaf.
//
// Neither a fresh generator draw per seed nor a jitter that moves the cube
// can be used. The interaction lists contain exact MAC ties (a cell and a
// half-size cell offset by (5,5,5) quarter-widths satisfy MAC*d ==
// sqrt(3)*(hA+hB) exactly), which floating-point rounding decides, and
// translation classes merge only bit-identical center differences; both
// depend on the last bit of the root cube. A 1e-6 shift of the cube moves
// near_pairs by 3%, the class count by 2x and allocs_per_step by 2x
// (README.md, "Spread") — far beyond the bounds at which later PRs are
// compared across runs with different seeds.
func (w *workload) bodies(seed int64) *particle.System {
	sys := w.draw(w)
	if w.jitter == 0 {
		return sys
	}
	span := map[int]bool{}
	for axis := 0; axis < 3; axis++ {
		coord := func(i int) float64 { return [3]float64{sys.Pos[i].X, sys.Pos[i].Y, sys.Pos[i].Z}[axis] }
		lo, hi := 0, 0
		for i := range sys.Pos {
			if coord(i) < coord(lo) {
				lo = i
			}
			if coord(i) > coord(hi) {
				hi = i
			}
		}
		span[lo], span[hi] = true, true
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range sys.Pos {
		d := geom.Vec3{
			X: w.jitter * (2*rng.Float64() - 1),
			Y: w.jitter * (2*rng.Float64() - 1),
			Z: w.jitter * (2*rng.Float64() - 1),
		}
		if !span[i] {
			sys.Pos[i] = sys.Pos[i].Add(d)
		}
	}
	return sys
}

// workloads returns the five workloads in their canonical order.
func workloads() []*workload {
	return []*workload{
		{
			name: "grav-far-p8",
			why:  "Plummer N=20000, p=8, S=64: M2L is ~88% of the step, so an expansion change must show here",
			kind: kindGravity, n: 20000, p: 8, s: 64, dt: 1e-4, soften: 0.01,
			steps: 2, coldSetup: true, pinS: true, errCeil: 2.9e-4, jitter: 1e-6,
			draw: func(w *workload) *particle.System {
				return distrib.Plummer(w.n, 1, 1, baseSeed)
			},
		},
		{
			name: "grav-near-s256",
			why:  "same bodies, p=4, S=256: P2P is ~2/3 of the work, so a P2P change shows here and an M2L change must not",
			kind: kindGravity, n: 20000, p: 4, s: 256, dt: 1e-4, soften: 0.01,
			steps: 6, coldSetup: true, pinS: true, errCeil: 1.8e-3, jitter: 1e-6,
			draw: func(w *workload) *particle.System {
				return distrib.Plummer(w.n, 1, 1, baseSeed)
			},
		},
		{
			name: "grav-dyn-hetero",
			why:  "cold collapse N=6000 on 10 vcores + 2 vGPUs, full balancer from step 0: tree, lists and tables rebuilt every few steps",
			kind: kindGravity, n: 6000, p: 4, s: 64, dt: 2e-4, soften: 0.005,
			steps: 40, errCeil: 8.2e-4,
			draw: func(w *workload) *particle.System {
				sys := distrib.PlummerTruncated(w.n, 1, 1, 0.8, baseSeed)
				for i := range sys.Vel {
					sys.Vel[i] = geom.Vec3{}
				}
				return sys
			},
		},
		{
			name: "stokes-cube-p4",
			why:  "uniform cube N=8000 Stokeslets, p=4, S=64: four harmonic passes through the stokes package's own operator copy",
			kind: kindStokes, n: 8000, p: 4, s: 64, dt: 1e-3,
			steps: 20, coldSetup: true, pinS: true, errCeil: 1.3e-4, jitter: 1e-6,
			draw: func(w *workload) *particle.System {
				return distrib.UniformCube(w.n, 1, baseSeed)
			},
		},
		{
			name: "dmem-grav-4n",
			why:  "two clusters N=16000 on 4 executed nodes with repartitioning: exchange plan, framed transport and node engines",
			kind: kindDmem, n: 16000, p: 4, s: 64, dt: 1e-4, soften: 0.01,
			steps: 6, coldSetup: true, errCeil: 2.4e-3, jitter: 1e-6,
			draw: func(w *workload) *particle.System {
				return distrib.TwoClusters(w.n, 0.3, 1, 8, 0, baseSeed)
			},
		},
	}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Stokes forces. sim.RunStokes clears sys.Aux and re-evaluates the
// boundaries every step, so the workload's random forces have to arrive as
// a boundary: a spring network that pairs the markers at random (a fixed
// draw, like the bodies) and sets each rest length so the first evaluation
// yields a force of magnitude forceScale*U(-1,1) along the pair. Net force
// and torque are zero, as for any closed immersed structure.
const forceScale = 0.1

func springNetwork(sys *particle.System) stokes.Boundary {
	rng := rand.New(rand.NewSource(baseSeed ^ 0x5eed))
	perm := rng.Perm(sys.Len())
	b := stokes.Boundary{Stiffness: 1}
	for i := 0; i+1 < len(perm); i += 2 {
		a, c := perm[i], perm[i+1]
		r := sys.Pos[c].Sub(sys.Pos[a]).Norm()
		b.Links = append(b.Links, stokes.Link{A: a, B: c, Rest: r - forceScale*(2*rng.Float64()-1)})
	}
	return b
}

// instance is one constructed workload: bodies plus the solver that will
// advance them. The solvers receive only the bodies, never the seed.
type instance struct {
	w    *workload
	pool *sched.Pool
	sys  *particle.System
	grav *core.Solver
	stk  *stokes.Solver
	bnd  []stokes.Boundary
	dm   *dmem.Solver
	// rec, when non-nil, is attached to the public sim loop (the
	// telemetry-overhead measurement).
	rec *telemetry.Recorder
}

func (w *workload) gravityKernel() kernels.Gravity {
	return kernels.Gravity{G: 1, Softening: w.soften}
}

var stokesKernel = kernels.Stokeslet{Mu: 1, Eps: 1e-3}

// virtualCPU is the paper's 10-core host.
func virtualCPU() vcpu.Spec {
	c := vcpu.DefaultSpec()
	c.Cores = 10
	return c
}

// coreConfig is the configuration the cmd tools build: task graph on, M2L
// table on, everything else default.
func (w *workload) coreConfig(pool *sched.Pool) core.Config {
	cfg := core.Config{
		P: w.p, S: w.s, Kernel: w.gravityKernel(),
		Pool: pool, CPU: virtualCPU(), TaskGraph: true,
	}
	if !w.pinS && w.kind == kindGravity {
		cfg.NumGPUs = 2
		cfg.GPUSpec = vgpu.ScaledSpec(1.0 / 64)
	}
	return cfg
}

func newInstance(w *workload, seed int64, pool *sched.Pool) (*instance, error) {
	in := &instance{w: w, pool: pool}
	in.sys = w.bodies(seed)
	if w.kind == kindStokes {
		in.bnd = []stokes.Boundary{springNetwork(in.sys)}
	}
	switch w.kind {
	case kindGravity:
		in.grav = core.NewSolver(in.sys, w.coreConfig(pool))
	case kindStokes:
		in.stk = stokes.NewSolver(in.sys, stokes.Config{
			P: w.p, S: w.s, Kernel: stokesKernel,
			Pool: pool, CPU: virtualCPU(), TaskGraph: true,
		})
	case kindDmem:
		d, err := dmem.NewSolver(in.sys, dmem.Config{
			Core:    w.coreConfig(pool),
			Nodes:   dmem.HomogeneousNodes(4, dmem.NodeSpec{CPU: virtualCPU()}),
			Net:     dmem.DefaultNetwork(),
			Execute: true,
		})
		if err != nil {
			return nil, err
		}
		in.dm = d
	}
	return in, nil
}

func (in *instance) tree() *octree.Tree {
	switch in.w.kind {
	case kindStokes:
		return in.stk.Tree
	case kindDmem:
		return in.dm.Inner.Tree
	}
	return in.grav.Tree
}

func (w *workload) balanceConfig() balance.Config {
	if w.pinS {
		return balance.Config{Strategy: balance.StrategyStatic, MinS: w.s, MaxS: w.s}
	}
	return balance.Config{Strategy: balance.StrategyFull}
}

// dmemPolicy repartitions above 5% compute imbalance. The equal-count
// split of the two clusters starts at 1.08 and stays there, so at the
// cmd tools' 1.15 the repartitioner would never run; at 1.05 it runs once,
// inside the cold step, and every timed step executes on the cuts it
// chose.
var dmemPolicy = dmem.RebalancePolicy{Threshold: 1.05}

// stepSample is what one step of a public run loop reports.
type stepSample struct {
	start  time.Time
	wallNs int64
	model  float64 // modeled seconds: compute + LB + refill, or dmem StepTime
}

func (s stepSample) end() time.Time { return s.start.Add(time.Duration(s.wallNs)) }

// run advances the instance by steps steps, numbered from start, through
// the workload's public run loop and returns one sample per step. A step
// the loop had to recover, or an aborted run, is an error: the workloads
// are chosen so that no step fails.
func (in *instance) run(start, steps int) ([]stepSample, error) {
	out := make([]stepSample, 0, steps)
	if in.w.kind == kindDmem {
		last := time.Now()
		res := in.dm.RunWith(dmem.RunConfig{
			Steps: steps, Dt: in.w.dt, Policy: dmemPolicy, StartStep: start,
			OnStep: func(int) {
				now := time.Now()
				out = append(out, stepSample{start: last, wallNs: now.Sub(last).Nanoseconds()})
				last = now
			},
		})
		if res.NodeLosses > 0 || res.Net.Timeouts > 0 {
			return nil, fmt.Errorf("dmem run: %d node losses, %d timeouts", res.NodeLosses, res.Net.Timeouts)
		}
		for i, rep := range res.Steps {
			out[i].model = rep.StepTime
		}
		return out, nil
	}
	cfg := sim.Config{Dt: in.w.dt, Steps: steps, Balance: in.w.balanceConfig(), Rec: in.rec}
	var res sim.Result
	t := time.Now()
	if in.w.kind == kindStokes {
		res = sim.RunStokes(in.stk, in.bnd, cfg)
	} else {
		res = sim.RunGravity(in.grav, cfg)
	}
	if res.Err != nil {
		return nil, res.Err
	}
	if res.Recoveries > 0 || len(res.Records) != steps {
		return nil, fmt.Errorf("sim run: %d recoveries, %d of %d steps", res.Recoveries, len(res.Records), steps)
	}
	// The loop times each step itself and does nothing between two of
	// them, so step i starts where step i-1 ended.
	for _, r := range res.Records {
		out = append(out, stepSample{start: t, wallNs: r.WallNs, model: r.Total})
		t = out[len(out)-1].end()
	}
	return out, nil
}
