// Package core implements the heterogeneous AFMM solver of the paper: the
// far-field expansion phases (P2M, M2M, M2L, L2L, L2P) executed by CPU
// task parallelism over the adaptive octree, concurrently with the
// near-field (P2P) work that the paper runs on GPUs (here host chunks of
// the same graph, priced by the simulated GPUs' clock), under the paper's
// timing definitions — CPU Time is the up-sweep-to-down-sweep span, GPU
// Time is the maximum per-device kernel time, Compute Time is their
// maximum.
package core

import (
	"math"
	"time"

	"afmm/internal/costmodel"
	"afmm/internal/fault"
	"afmm/internal/geom"
	"afmm/internal/kernels"
	"afmm/internal/octree"
	"afmm/internal/particle"
	"afmm/internal/sched"
	"afmm/internal/telemetry"
	"afmm/internal/vcpu"
	"afmm/internal/vgpu"
)

// Profile is a field's timing profile: its far-field passes (Field.Width)
// and its P2P cost relative to gravity's (Field.PairFlops over
// kernels.FlopsPerGravityInteraction). The solver reads both from its
// field; the type survives for the benchmark's replay, which prices the
// Stokes graph without building a field.
type Profile struct {
	FarFieldPasses int
	P2PCostFactor  float64
}

// StokesProfile reflects the 4-harmonic decomposition (M2L cost ~4x the
// gravitational problem, §IX.B) and the regularized Stokeslet P2P cost.
func StokesProfile() Profile {
	return Profile{
		FarFieldPasses: 4,
		P2PCostFactor:  float64(kernels.FlopsPerStokesletInteraction) / float64(kernels.FlopsPerGravityInteraction),
	}
}

// Config assembles a solver.
type Config struct {
	// P is the number of retained expansion terms (order); default 8.
	P int
	// S is the leaf-capacity parameter the load balancer tunes.
	S int
	// MAC is the acceptance parameter of the interaction-list traversal.
	MAC float64
	// Mode selects adaptive (AFMM) or uniform (FMM) decomposition.
	Mode octree.Mode
	// MaxDepth bounds subdivision.
	MaxDepth int
	// Kernel is the gravity kernel (G, softening) NewSolver's field uses.
	Kernel kernels.Gravity
	// Pool runs the real computation; nil creates a GOMAXPROCS pool.
	Pool *sched.Pool
	// CPU is the virtual CPU subsystem (cores, base coefficients).
	CPU vcpu.Spec
	// NumGPUs and GPUSpec define the simulated device cluster; zero GPUs
	// runs the near field on the virtual CPU (serial/CPU-only configs).
	NumGPUs int
	GPUSpec vgpu.Spec
	// SkipFarField disables the far-field numeric execution (used by
	// harnesses that only study timing behaviour at scale). Timing is
	// unaffected; accelerations are then near-field only.
	SkipFarField bool
	// SkipNearField likewise disables the numeric P2P execution; the
	// device timing model still runs. With both Skip flags set a Solve
	// is a pure timing dry run (no forces are produced).
	SkipNearField bool
	// TaskGraph is accepted and ignored: every solve runs the step graph.
	// The field survives only because benchmark/workloads.go, which a
	// non-benchmark change may not edit, sets it in keyed literals; no code
	// reads it, and the next benchmark change drops it.
	TaskGraph bool
	// Rec, when non-nil, receives per-phase spans, device kernel samples,
	// worker busy times, and the step's cost-model observation from every
	// Solve. A nil recorder compiles to no-ops on the hot paths. Prefer
	// Solver.SetRecorder over mutating this after construction, so the
	// device cluster picks up the recorder too.
	Rec *telemetry.Recorder
	// Validate enables the opt-in post-solve invariant guard: after each
	// SolveChecked, every body's Phi/Acc accumulators are scanned for
	// NaN/Inf in parallel and a non-finite value fails the step before
	// its results can reach the integrator.
	Validate bool
	// Faults, when non-nil, arms the device cluster's deterministic
	// fault injector: device walks consult it per chunk, and dead
	// devices' rows are charged to the host fallback. Nil (the default)
	// never faults.
	Faults *fault.Injector
	// Watchdog tunes fault handling on the device walk (zero value =
	// documented defaults); only consulted when Faults is set.
	Watchdog vgpu.WatchdogConfig
	// OffloadEndpoints moves the P2M and L2P work to the GPUs — the
	// extension the paper proposes (§VIII.E) for configurations whose
	// CPU is underpowered relative to the devices ("the way forward in
	// such an unbalanced situation is to move additional work to the
	// GPU... P2M expansion formation and L2P expansion evaluation").
	// The numeric result is unchanged; the endpoint costs move from the
	// CPU task graph to the device timing model.
	OffloadEndpoints bool
}

func (c *Config) setDefaults() {
	if c.P <= 0 {
		c.P = 8
	}
	if c.S <= 0 {
		c.S = 64
	}
	if c.Pool == nil {
		c.Pool = sched.NewPool(0)
	}
	c.CPU = c.CPU.Normalized()
	if c.NumGPUs > 0 && c.GPUSpec.SMs == 0 {
		c.GPUSpec = vgpu.DefaultSpec()
	}
	if c.Kernel.G == 0 {
		c.Kernel.G = 1
	}
}

// StepTimes reports one solve's virtual-machine timing (the quantities the
// paper's load balancer consumes) plus host wall time for reference.
type StepTimes struct {
	CPUTime float64 // far-field makespan on the virtual CPU (plus P2P when no GPUs)
	GPUTime float64 // max simulated kernel time over devices
	Compute float64 // max(CPUTime, GPUTime) — the paper's Compute Time
	Counts  costmodel.Counts
	CPUEff  float64 // parallel efficiency of the virtual schedule
	GPUEff  float64 // useful/slot interactions on the slowest-loaded cluster
	Real    time.Duration
	// Host breaks the Real wall clock into list/far/near phases, so step
	// loops see where host time went without owning a telemetry recorder.
	Host telemetry.HostPhases
}

// Solver is the heterogeneous AFMM engine: the step driver — lists, M2L
// table, the step graph, the virtual machine's timing, the cost-model fold
// and the telemetry record — over the Field of one kernel. NewSolver builds
// it over the gravity field; stokes.Solver embeds one over the Stokeslet's.
type Solver struct {
	Cfg     Config
	Sys     *particle.System
	Tree    *octree.Tree
	Cluster *vgpu.Cluster
	Model   *costmodel.Model
	// Field holds the kernel's operators and the expansion slabs.
	Field Field

	ws Workspaces
	// busySnap/busyDelta are reused worker busy-time snapshot buffers
	// (telemetry; unused when no recorder is attached), classSnap/
	// classDelta the per-work-class equivalents.
	busySnap   []int64
	busyDelta  []int64
	classSnap  []int64
	classDelta []int64
	// capEpoch/capVal track the cluster's last-seen capacity state, so
	// Solve can re-derive the GPU prediction exactly once per topology
	// change (device loss/derating).
	capEpoch int64
	capVal   float64

	// m2l is the shared M2L translation-class table (see kernelspeed.go).
	m2l SharedM2L

	// taskStats holds the graph statistics of the most recent Solve (see
	// taskgraph.go); benchmarks read it via TaskGraphStats.
	taskStats sched.GraphStats
}

// NewSolver builds the decomposition, the gravity field and the device
// cluster.
func NewSolver(sys *particle.System, cfg Config) *Solver {
	s := NewSolverWith(sys, cfg, func(t *octree.Tree, c Config, m2l *SharedM2L) Field {
		return NewGravityField(t, sys, c.P, c.Kernel, m2l)
	})
	s.Tree.SetDirectK(DirectK(s.Cfg.P))
	return s
}

// NewSolverWith builds the step driver over the field newField returns for
// the solver's tree, its defaulted configuration and its M2L table.
func NewSolverWith(sys *particle.System, cfg Config, newField func(t *octree.Tree, cfg Config, m2l *SharedM2L) Field) *Solver {
	cfg.setDefaults()
	s := &Solver{Cfg: cfg, Sys: sys, ws: NewWorkspaces(cfg.P, cfg.Pool.Workers()+8)}
	s.Tree = octree.Build(sys, octree.Config{
		S:        cfg.S,
		MaxDepth: cfg.MaxDepth,
		Mode:     cfg.Mode,
		MAC:      cfg.MAC,
		Pool:     cfg.Pool,
	})
	s.Field = newField(s.Tree, cfg, &s.m2l)
	if cfg.NumGPUs > 0 {
		s.Cluster = vgpu.NewCluster(cfg.NumGPUs, cfg.GPUSpec)
		s.Cluster.Rec = cfg.Rec
		s.Cluster.Injector = cfg.Faults
		s.Cluster.Watchdog = cfg.Watchdog
		// Host fallback rate: how fast the virtual CPU would grind P2P
		// interactions, for charging recovered rows in virtual time.
		if base := cfg.CPU.Base[costmodel.P2P] * s.p2pCostFactor(); base > 0 {
			s.Cluster.HostP2PRate = float64(cfg.CPU.Cores) / base
		}
		// Corrupt faults poison one accumulator of the chunk's first
		// target leaf.
		s.Cluster.Corrupt = func(target int32) {
			if n := &s.Tree.Nodes[target]; n.Count() > 0 {
				s.Field.Poison(n.Start)
			}
		}
		s.capEpoch = s.Cluster.CapacityEpoch()
		s.capVal = s.Cluster.Capacity()
	}
	s.Model = costmodel.NewModel(s.priorCoefficients())
	return s
}

// SetRecorder attaches (or detaches, with nil) the telemetry recorder,
// propagating it to the device cluster.
func (s *Solver) SetRecorder(rec *telemetry.Recorder) {
	s.Cfg.Rec = rec
	if s.Cluster != nil {
		s.Cluster.Rec = rec
	}
}

// p2pCostFactor is the field's pair cost relative to gravity's. It scales
// the virtual CPU's per-interaction P2P cost only: a device spec is given
// in the kernel's own interactions per second (stokes.Config derates its
// default spec by the same flop ratio), so the device side never applies
// the factor a second time.
func (s *Solver) p2pCostFactor() float64 {
	return float64(s.Field.PairFlops()) / float64(kernels.FlopsPerGravityInteraction)
}

// priorCoefficients predicts costs before any observation: base CPU costs
// of the field's passes spread over the cores, and the device's ideal
// interaction rate (in the kernel's own interactions, see p2pCostFactor).
func (s *Solver) priorCoefficients() costmodel.Coefficients {
	var c costmodel.Coefficients
	k := float64(s.Cfg.CPU.Cores)
	if k < 1 {
		k = 1
	}
	passes := float64(s.Field.Width())
	for op := costmodel.P2M; op <= costmodel.L2P; op++ {
		c[op] = s.Cfg.CPU.Base[op] * passes / k
	}
	if s.Cfg.NumGPUs > 0 {
		rate := s.Cfg.GPUSpec.InteractionsPerSecPerSM * float64(s.Cfg.GPUSpec.SMs) * float64(s.Cfg.NumGPUs)
		c[costmodel.P2P] = 1 / rate
	} else {
		c[costmodel.P2P] = s.Cfg.CPU.Base[costmodel.P2P] * s.p2pCostFactor() / k
	}
	return c
}

// S returns the current leaf-capacity parameter.
func (s *Solver) S() int { return s.Tree.Cfg.S }

// Rebuild reconstructs the tree with a new S (the Search/Incremental
// states' full rebuild).
func (s *Solver) Rebuild(newS int) { s.Tree.Rebuild(newS) }

// Refill re-bins moved bodies into the existing structure.
func (s *Solver) Refill() { s.Tree.Refill() }

// EnforceS restores the leaf-capacity invariant on the existing tree.
func (s *Solver) EnforceS() (collapses, pushdowns int) { return s.Tree.EnforceS() }

// Solve runs one full FMM evaluation — the field's result for every body
// (potentials and accelerations for gravity, velocities for Stokes) — and
// the virtual-machine timing of the step.
func (s *Solver) Solve() StepTimes {
	rec := s.Cfg.Rec
	timer := sched.StartTimer()
	solveTok := rec.Begin(telemetry.SpanSolve, 0)
	if rec.Enabled() {
		s.busySnap = s.Cfg.Pool.WorkerBusyNs(s.busySnap[:0])
		s.classSnap = s.Cfg.Pool.ClassBusyNs(s.classSnap[:0])
	}
	t := s.Tree

	// The list span kind is only known after the fact: BuildLists decides
	// between skip, repair, and full traversal, and the ListStats delta
	// says which it took.
	ls0 := t.ListBuildStats()
	listTimer := sched.StartTimer()
	t.BuildLists()
	listDur := listTimer.Elapsed()
	ld := t.ListBuildStats().Sub(ls0)
	if rec.Enabled() {
		kind := telemetry.SpanListSkip
		switch {
		case ld.FullBuilds > 0:
			kind = telemetry.SpanListFull
		case ld.Repairs > 0:
			kind = telemetry.SpanListRepair
		}
		rec.AddSpan(kind, 0, listTimer.StartTime(), listDur)
	}

	prepTimer := sched.StartTimer()
	s.Sys.ResetAccumulatorsParallel(s.Cfg.Pool)
	s.Field.Reset()
	// Resolve the near-field schedule here, on the solve goroutine: its
	// rows (and the translated-pair counts behind the far-field weights)
	// follow this step's occupancy, and every graph node only reads it.
	sch := t.NearField()
	rec.AddSpan(telemetry.SpanPrep, 0, prepTimer.StartTime(), prepTimer.Elapsed())

	// The shared M2L class table must be complete before any worker
	// translates.
	s.PrepareM2L()
	// The near-field "kernels" and the far-field traversal run as one
	// dependency graph, as in the paper's concurrent kernel launch: the
	// two meet only at each leaf's L2P.
	tg := s.runGraph()
	// The devices' clock walks the rows the graph just computed (even
	// under SkipNearField: the timing model still runs). A Corrupt fault
	// poisons its target now, when nothing else writes to it.
	var gpuTime float64
	if s.Cluster != nil {
		s.Cluster.Partition(t)
		gpuTime = s.Cluster.Execute(t)
	}

	graphTimer := sched.StartTimer()
	counts := costmodel.FromTree(t.CountOps())
	offload := s.Cfg.OffloadEndpoints && s.Cluster != nil
	graph := vcpu.BuildFMMGraph(t, s.Cfg.CPU.Base, vcpu.FMMGraphOptions{
		IncludeP2P:       s.Cluster == nil,
		FarFieldPasses:   s.Field.Width(),
		P2PCostFactor:    s.p2pCostFactor(),
		ExcludeEndpoints: offload,
	})
	rec.AddSpan(telemetry.SpanGraph, 0, graphTimer.StartTime(), graphTimer.Elapsed())
	simTok := rec.Begin(telemetry.SpanVCPUSim, 0)
	res := s.Cfg.CPU.Simulate(graph)
	rec.End(simTok)
	if offload {
		// Endpoint work runs on the devices: one P2M/L2P application is
		// charged like EndpointInteractionEquiv near-field interactions,
		// spread over the cluster.
		passes := float64(s.Field.Width())
		rate := s.Cfg.GPUSpec.InteractionsPerSecPerSM * float64(s.Cfg.GPUSpec.SMs) *
			float64(len(s.Cluster.Devices))
		gpuTime += passes * float64(counts[costmodel.P2M]+counts[costmodel.L2P]) *
			vgpu.EndpointInteractionEquiv / rate
	}

	st := StepTimes{
		CPUTime: res.Makespan,
		GPUTime: gpuTime,
		Counts:  counts,
		CPUEff:  res.Efficiency(s.Cfg.CPU.Cores),
	}
	st.Compute = math.Max(st.CPUTime, st.GPUTime)
	if s.Cluster != nil {
		var slot, useful int64
		for _, d := range s.Cluster.Devices {
			slot += d.SlotWork
			useful += d.Interactions
		}
		if slot > 0 {
			st.GPUEff = float64(useful) / float64(slot)
		}
	}

	// Fold observations into the cost model (paper §IV.D): CPU busy time
	// per op scaled to wall-clock share so that sum(M(op) c(op)) equals
	// the observed CPU makespan; the GPU coefficient is max kernel time
	// over total interactions.
	obsTimer := sched.StartTimer()
	var obs costmodel.Observation
	obs.Counts = counts
	// Normalize over the op-attributed busy time (excluding task-spawn
	// overhead) so the per-op shares sum exactly to the observed makespan
	// and PredictCPU reproduces it on an unchanged tree.
	var opBusy float64
	for op := costmodel.Op(0); op < costmodel.NumOps; op++ {
		opBusy += res.BusyTime[op]
	}
	if opBusy > 0 {
		for op := costmodel.P2M; op <= costmodel.L2P; op++ {
			obs.Time[op] = res.Makespan * res.BusyTime[op] / opBusy
		}
	}
	if s.Cluster != nil {
		obs.Time[costmodel.P2P] = gpuTime
	} else if opBusy > 0 {
		obs.Time[costmodel.P2P] = res.Makespan * res.BusyTime[costmodel.P2P] / opBusy
	}
	s.Model.Observe(obs)
	// Capacity-change epoch: when the cluster lost a device (or a device
	// was derated/restored) during this solve, re-derive the GPU-side
	// prediction by the capacity ratio C/C' — the fault may have landed
	// mid-step, so this step's own observation underestimates a fully
	// degraded step. Applied after the fold so Observe cannot clobber it;
	// the next full degraded step's observation refines the estimate.
	if s.Cluster != nil {
		if ep := s.Cluster.CapacityEpoch(); ep != s.capEpoch {
			newCap := s.Cluster.Capacity()
			if newCap > 0 && s.capVal > 0 {
				s.Model.ScaleGPU(s.capVal / newCap)
			}
			s.capEpoch = ep
			s.capVal = newCap
		}
	}
	rec.AddSpan(telemetry.SpanObserve, 0, obsTimer.StartTime(), obsTimer.Elapsed())

	st.Real = timer.Elapsed()
	// Serial-equivalent wall: replace the graph region with what its
	// phases would have cost back to back. Back to back cannot beat
	// overlapped: the per-phase span unions leave out the moments no node
	// was running (worker wake-up, a descheduled worker), so on a busy host
	// their sum can fall short of the region they tile.
	serial := max(st.Real-tg.region+tg.near+tg.up+tg.down+tg.l2p, st.Real)
	st.Host = telemetry.HostPhases{
		List: listDur, Far: tg.up + tg.down + tg.l2p, Near: tg.near,
		Wall: st.Real, SerialWall: serial, Overlapped: true,
	}
	if rec.Enabled() {
		s.busyDelta = s.Cfg.Pool.WorkerBusyNs(s.busyDelta[:0])
		for i := range min(len(s.busyDelta), len(s.busySnap)) {
			s.busyDelta[i] -= s.busySnap[i]
		}
		s.classDelta = s.Cfg.Pool.ClassBusyNs(s.classDelta[:0])
		for i := range min(len(s.classDelta), len(s.classSnap)) {
			s.classDelta[i] -= s.classSnap[i]
		}
		rec.Update(func(r *telemetry.StepRecord) {
			r.Lists = telemetry.ListDelta{Full: ld.FullBuilds, Repairs: ld.Repairs, Skips: ld.Skips, Pairs: ld.Pairs}
			r.DirectPairs, r.DirectInteractions = sch.DirectPairs, sch.DirectInteractions
			for op := costmodel.Op(0); op < costmodel.NumOps; op++ {
				r.Counts[op] = counts[op]
				r.OpTime[op] = obs.Time[op]
				r.Coef[op] = s.Model.Coef[op]
			}
			r.CPU, r.GPU, r.CPUEff, r.GPUEff = st.CPUTime, st.GPUTime, st.CPUEff, st.GPUEff
			if s.Cluster != nil {
				for _, d := range s.Cluster.Devices {
					r.Devices = append(r.Devices, telemetry.DeviceSample{Kernel: d.KernelTime, Interactions: d.Interactions})
				}
			}
			r.WorkerBusyNs = append(r.WorkerBusyNs[:0], s.busyDelta...)
			r.ClassBusyNs = append(r.ClassBusyNs[:0], s.classDelta...)
			r.Overlapped, r.SerialWallNs = true, serial.Nanoseconds()
		})
	}
	rec.End(solveTok)
	return st
}

// Predict estimates the compute time of the *current* tree shape without
// solving (§IV.D): it rebuilds the interaction lists, counts operations,
// and applies the observed coefficients.
func (s *Solver) Predict() (cpu, gpu float64) {
	s.Tree.BuildLists()
	counts := costmodel.FromTree(s.Tree.CountOps())
	return s.Model.PredictCPU(counts), s.Model.PredictGPU(counts)
}

// Octree exposes the decomposition (balance.Target).
func (s *Solver) Octree() *octree.Tree { return s.Tree }

// System exposes the bodies (balance.Target).
func (s *Solver) System() *particle.System { return s.Sys }

// Cores returns the virtual core count (balance.Target).
func (s *Solver) Cores() int { return s.Cfg.CPU.Cores }

// AllPairsReference computes exact (softened) potentials and accelerations
// by direct summation into fresh slices, in storage order — the
// correctness baseline for tests and examples.
func AllPairsReference(sys *particle.System, k kernels.Gravity) ([]float64, []geom.Vec3) {
	n := sys.Len()
	phi := make([]float64, n)
	acc := make([]geom.Vec3, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			p, a := k.Accumulate(sys.Pos[i], sys.Pos[j], sys.Mass[j])
			phi[i] += p
			acc[i] = acc[i].Add(a)
		}
	}
	return phi, acc
}
