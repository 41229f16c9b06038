// Package stokes implements the paper's fluid-dynamics test problem: the
// method of regularized Stokeslets (Cortez) accelerated by the AFMM.
//
// The near field uses the regularized Stokeslet kernel directly. The far
// field uses the classical four-harmonic decomposition of the (singular)
// Stokeslet, valid when the blob parameter is far smaller than the cell
// separation: with Phi_j the harmonic potential of charges f_j (j = x,y,z)
// and Psi the harmonic potential of charges f·y,
//
//	8 pi mu u_i(x) = Phi_i(x) - x_j d_i Phi_j(x) + d_i Psi(x)
//
// so one Stokes solve runs four Laplace FMM passes over the same tree —
// which is why the per-pair M2L cost of this problem is ~4x the
// gravitational one (§IX.B), the property Figure 10 exploits. The passes
// share every geometric quantity, so the sweeps run them side by side: one
// harmonic evaluation per body and one four-column translation per V-list
// pair serve all four (upNode, downNode, leafL2P); the cost model keeps
// counting four passes of expansion work.
package stokes

import (
	"math"
	"time"

	"afmm/internal/core"
	"afmm/internal/costmodel"
	"afmm/internal/expansion"
	"afmm/internal/fault"
	"afmm/internal/geom"
	"afmm/internal/kernels"
	"afmm/internal/octree"
	"afmm/internal/particle"
	"afmm/internal/sched"
	"afmm/internal/sphharm"
	"afmm/internal/telemetry"
	"afmm/internal/vcpu"
	"afmm/internal/vgpu"
)

// passes is the number of harmonic far-field passes per Stokes solve.
const passes = 4

// Config assembles a Stokes solver.
type Config struct {
	P        int
	S        int
	MAC      float64
	Mode     octree.Mode
	MaxDepth int
	Kernel   kernels.Stokeslet
	Pool     *sched.Pool
	CPU      vcpu.Spec
	NumGPUs  int
	GPUSpec  vgpu.Spec
	// SkipFarField disables far-field numerics (timing-only harnesses).
	SkipFarField bool
	// SweepMode selects the host execution of the four far-field passes:
	// level-synchronous flat sweeps with batched M2L (default) or the
	// legacy task recursion (core.SweepRecursive). The four passes share
	// one tree, so in level-sync mode every V-list pair is translated once,
	// four columns wide.
	SweepMode core.SweepMode
	// UseRotatedTranslations switches to the O(p^3) rotation-accelerated
	// translation operators (numerically equivalent; faster for P >= ~6).
	UseRotatedTranslations bool
	// DisableListCache turns off the persistent interaction-list cache
	// (octree.Config.NoListCache); kept for A/B measurement. Results are
	// bit-identical either way.
	DisableListCache bool
	// Overlap controls the concurrent near/far host execution (see
	// core.OverlapMode): with the default core.OverlapAuto the Stokeslet
	// near field runs concurrently with all four harmonic up-sweep/M2L
	// passes, converging before the combined L2P evaluation — results are
	// bit-identical to the sequential order.
	Overlap core.OverlapMode
	// ReservedDrivers dedicates pool slots to the near-field class while
	// the phases overlap (see core.Config.ReservedDrivers; 0 = one per
	// device, -1 = none).
	ReservedDrivers int
	// TaskGraph opts the solve into the dependency-driven execution path
	// (see core.Config.TaskGraph): one far-field chain whose chunks compute
	// all four harmonic passes of their cells, against the near field,
	// joined only at the combined four-local L2P. Results stay
	// bit-identical: the chunk bodies are the level-synchronous ones, and
	// each body still gets exactly one L2P addition.
	TaskGraph bool
	// DisableM2LTable turns off the shared M2L translation-class table
	// (see core.Config.DisableM2LTable); each V-list pair then runs the
	// uncached reference form once per harmonic pass.
	DisableM2LTable bool
	// Rec receives per-phase telemetry from every Solve (see
	// core.Config.Rec); nil compiles to no-ops. Prefer Solver.SetRecorder
	// after construction.
	Rec *telemetry.Recorder
	// Validate enables the opt-in post-solve NaN/Inf scan over the
	// velocity accumulators (see core.Config.Validate); checked by
	// SolveChecked.
	Validate bool
	// Faults arms the device cluster's deterministic fault injector (see
	// core.Config.Faults); nil executes the exact pre-fault paths.
	Faults *fault.Injector
	// Watchdog tunes fault detection/recovery; consulted when Faults is
	// set.
	Watchdog vgpu.WatchdogConfig
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
		// The Stokeslet pair costs more flops than the gravity pair;
		// derate the device's interaction rate accordingly.
		c.GPUSpec.InteractionsPerSecPerSM *= float64(kernels.FlopsPerGravityInteraction) /
			float64(kernels.FlopsPerStokesletInteraction)
	}
	if c.Kernel.Mu == 0 {
		c.Kernel.Mu = 1
	}
	if c.Kernel.Eps == 0 {
		c.Kernel.Eps = 1e-3
	}
}

// Solver evaluates regularized-Stokeslet velocities with the AFMM. Body
// forces live in Sys.Aux (they permute with the tree); the resulting fluid
// velocities are accumulated into Sys.Acc.
type Solver struct {
	Cfg   Config
	Sys   *particle.System
	Tree  *octree.Tree
	Cl    *vgpu.Cluster
	Model *costmodel.Model

	packedLen  int
	multipoles [passes][]complex128
	locals     [passes][]complex128
	// wsFree is a free-list of long-lived operator workspaces.
	wsFree    chan *expansion.Workspace
	weightBuf []int64
	// capEpoch/capVal track the last-seen cluster capacity (see
	// core.Solver).
	capEpoch int64
	capVal   float64
	// classSnap/classDelta are reused per-work-class busy-time snapshot
	// buffers (telemetry; unused when no recorder is attached).
	classSnap  []int64
	classDelta []int64

	// m2l is the shared M2L translation-class table (see core.SharedM2L):
	// one table serves all four harmonic passes.
	m2l core.SharedM2L
}

// NewSolver builds the decomposition for the body positions.
func NewSolver(sys *particle.System, cfg Config) *Solver {
	cfg.setDefaults()
	s := &Solver{Cfg: cfg, Sys: sys, packedLen: sphharm.PackedLen(cfg.P)}
	s.wsFree = make(chan *expansion.Workspace, cfg.Pool.Workers()+8)
	s.Tree = octree.Build(sys, octree.Config{
		S:           cfg.S,
		MaxDepth:    cfg.MaxDepth,
		Mode:        cfg.Mode,
		MAC:         cfg.MAC,
		Pool:        cfg.Pool,
		NoListCache: cfg.DisableListCache,
	})
	// No Tree.SetDirectK: at 4.5 (p+1)² stokes-cube-p4 did not move (99.86 →
	// 99.93 ms), so Stokes sums no accepted pair directly until a workload
	// shows a gain.
	if cfg.NumGPUs > 0 {
		s.Cl = vgpu.NewCluster(cfg.NumGPUs, cfg.GPUSpec)
		s.Cl.Rec = cfg.Rec
		s.Cl.Injector = cfg.Faults
		s.Cl.Watchdog = cfg.Watchdog
		factor := float64(kernels.FlopsPerStokesletInteraction) /
			float64(kernels.FlopsPerGravityInteraction)
		if base := cfg.CPU.Base[costmodel.P2P] * factor; base > 0 {
			s.Cl.HostP2PRate = float64(cfg.CPU.Cores) / base
		}
		// Corrupt faults poison one velocity component of the chunk's
		// first target leaf, for the Validate guard to catch.
		s.Cl.Corrupt = func(target int32) {
			n := &s.Tree.Nodes[target]
			if n.Count() > 0 {
				s.Sys.Acc[n.Start].X = math.NaN()
			}
		}
		s.capEpoch = s.Cl.CapacityEpoch()
		s.capVal = s.Cl.Capacity()
	}
	s.Model = costmodel.NewModel(s.prior())
	return s
}

// SetRecorder attaches (or detaches, with nil) the telemetry recorder,
// propagating it to the device cluster. When the recorder carries a
// metrics registry, the solver's pool, cluster, and injector register
// their scrape-time series on it.
func (s *Solver) SetRecorder(rec *telemetry.Recorder) {
	s.Cfg.Rec = rec
	if s.Cl != nil {
		s.Cl.Rec = rec
	}
	if reg := rec.Metrics(); reg.Enabled() {
		s.Cfg.Pool.RegisterMetrics(reg)
		s.Cl.RegisterMetrics(reg)
		if s.Cl != nil {
			s.Cl.Injector.RegisterMetrics(reg)
		}
	}
}

func (s *Solver) prior() costmodel.Coefficients {
	var c costmodel.Coefficients
	k := math.Max(1, float64(s.Cfg.CPU.Cores))
	for op := costmodel.P2M; op <= costmodel.L2P; op++ {
		c[op] = s.Cfg.CPU.Base[op] * passes / k
	}
	factor := float64(kernels.FlopsPerStokesletInteraction) / float64(kernels.FlopsPerGravityInteraction)
	if s.Cfg.NumGPUs > 0 {
		rate := s.Cfg.GPUSpec.InteractionsPerSecPerSM * float64(s.Cfg.GPUSpec.SMs) * float64(s.Cfg.NumGPUs)
		c[costmodel.P2P] = 1 / rate
	} else {
		c[costmodel.P2P] = s.Cfg.CPU.Base[costmodel.P2P] * factor / k
	}
	return c
}

// balance.Target implementation.

// S returns the leaf capacity parameter.
func (s *Solver) S() int { return s.Tree.Cfg.S }

// Rebuild reconstructs the tree with a new S.
func (s *Solver) Rebuild(newS int) { s.Tree.Rebuild(newS) }

// Refill re-bins moved bodies.
func (s *Solver) Refill() { s.Tree.Refill() }

// EnforceS restores the capacity invariant.
func (s *Solver) EnforceS() (int, int) { return s.Tree.EnforceS() }

// Octree exposes the decomposition.
func (s *Solver) Octree() *octree.Tree { return s.Tree }

// System exposes the bodies.
func (s *Solver) System() *particle.System { return s.Sys }

// Cores returns the virtual core count.
func (s *Solver) Cores() int { return s.Cfg.CPU.Cores }

// Predict estimates CPU/GPU times for the current tree from observed
// coefficients.
func (s *Solver) Predict() (cpu, gpu float64) {
	s.Tree.BuildLists()
	counts := costmodel.FromTree(s.Tree.CountOps())
	return s.Model.PredictCPU(counts), s.Model.PredictGPU(counts)
}

// StepTimes mirrors core.StepTimes for the Stokes problem.
type StepTimes struct {
	CPUTime float64
	GPUTime float64
	Compute float64
	Counts  costmodel.Counts
	// Host breaks the solve's host wall clock into list/far/near phases.
	Host telemetry.HostPhases
}

// Solve computes velocities (into Sys.Acc) from the forces in Sys.Aux and
// returns the virtual step timing.
func (s *Solver) Solve() StepTimes {
	rec := s.Cfg.Rec
	wallTimer := sched.StartTimer()
	solveTok := rec.Begin(telemetry.SpanSolve, 0)
	if rec.Enabled() {
		s.classSnap = s.Cfg.Pool.ClassBusyNs(s.classSnap[:0])
	}
	t := s.Tree

	ls0 := t.ListBuildStats()
	listTimer := sched.StartTimer()
	t.BuildLists()
	listDur := listTimer.Elapsed()
	if rec.Enabled() {
		ld := t.ListBuildStats().Sub(ls0)
		kind := telemetry.SpanListSkip
		switch {
		case ld.FullBuilds > 0:
			kind = telemetry.SpanListFull
		case ld.Repairs > 0:
			kind = telemetry.SpanListRepair
		}
		rec.AddSpan(kind, 0, listTimer.StartTime(), listDur)
		rec.SetLists(telemetry.ListDelta{
			Full: ld.FullBuilds, Repairs: ld.Repairs, Skips: ld.Skips, Pairs: ld.Pairs,
		})
	}
	prepTimer := sched.StartTimer()
	s.Sys.ResetAccumulatorsParallel(s.Cfg.Pool)
	s.ensureSlabs()
	// Resolve the near-field schedule on the solve goroutine (see
	// core.Solver.Solve): every phase below only reads it.
	sch := t.NearField()
	rec.SetDirect(sch.DirectPairs, sch.DirectInteractions)
	rec.AddSpan(telemetry.SpanPrep, 0, prepTimer.StartTime(), prepTimer.Elapsed())

	// Kernel-speed preparation before the near/far fork (see core.Solver):
	// the shared class table (one lookup per V-list pair serves all four
	// harmonic passes).
	s.m2l.Prepare(s.Tree, s.Cfg.P, s.Cfg.Pool, rec,
		!s.Cfg.DisableM2LTable && s.Cfg.SweepMode == core.SweepLevelSync && !s.Cfg.SkipFarField)

	// Near and far phases, overlapped exactly as in core.Solver.Solve: a
	// driver goroutine executes the Stokeslet near field while this
	// goroutine runs all four harmonic up-sweep/M2L/L2L passes, and both
	// converge before the combined four-local L2P — the only far-field
	// write into Sys.Acc — so the result is bit-identical to the
	// sequential order.
	var gpuTime float64
	var nearDur, upDur, downDur, l2pDur time.Duration
	taskGraphed := s.taskGraphEligible()
	overlapped := !taskGraphed && s.Cfg.Overlap != core.OverlapOff &&
		s.Cfg.SweepMode == core.SweepLevelSync && !s.Cfg.SkipFarField &&
		s.Cfg.Pool.Workers() >= 2 // a 1-worker pool can only time-slice
	runNear := func() {
		nearTimer := sched.StartTimer()
		if s.Cl != nil {
			gpuTime = s.Cl.ExecuteParallel(t, s.p2pPair, s.Cfg.Pool)
			nearDur = nearTimer.Elapsed()
			rec.AddSpan(telemetry.SpanNearExec, 0, nearTimer.StartTime(), nearDur)
		} else {
			s.runCPUNearField()
			nearDur = nearTimer.Elapsed()
			rec.AddSpan(telemetry.SpanNearCPU, 0, nearTimer.StartTime(), nearDur)
		}
	}
	if s.Cl != nil {
		s.Cl.Partition(t)
	}
	var overlapRegion time.Duration
	if taskGraphed {
		// Dependency-driven path: all four harmonic passes plus the near
		// field run as one task DAG (see taskgraph.go); the combined L2P is
		// inside the graph, so there is no separate sweep after the region.
		tg := s.solveTaskGraph()
		gpuTime = tg.gpuTime
		nearDur, upDur, downDur, l2pDur = tg.near, tg.up, tg.down, tg.l2p
		overlapRegion = tg.region
	} else if overlapped {
		if k := s.reservedDrivers(); k > 0 {
			s.Cfg.Pool.SetReserved(k)
			defer s.Cfg.Pool.SetReserved(0)
		}
		ovTimer := sched.StartTimer()
		join := make(chan struct{})
		var nearPanic any
		go func() {
			defer close(join)
			defer func() { nearPanic = recover() }()
			runNear()
		}()
		upTimer := sched.StartTimer()
		s.upSweep()
		upDur = upTimer.Elapsed()
		rec.AddSpan(telemetry.SpanUpSweep, 0, upTimer.StartTime(), upDur)
		downTimer := sched.StartTimer()
		s.downSweepLevels(false)
		downDur = downTimer.Elapsed()
		rec.AddSpan(telemetry.SpanDownSweep, 0, downTimer.StartTime(), downDur)
		<-join
		if nearPanic != nil {
			panic(nearPanic)
		}
		overlapRegion = ovTimer.Elapsed()
		s.Cfg.Pool.SetReserved(0)
		l2pTimer := sched.StartTimer()
		s.l2pSweep()
		l2pDur = l2pTimer.Elapsed()
		rec.AddSpan(telemetry.SpanL2P, 0, l2pTimer.StartTime(), l2pDur)
	} else {
		runNear()
		if !s.Cfg.SkipFarField {
			upTimer := sched.StartTimer()
			s.upSweep()
			upDur = upTimer.Elapsed()
			rec.AddSpan(telemetry.SpanUpSweep, 0, upTimer.StartTime(), upDur)
			downTimer := sched.StartTimer()
			s.downSweep()
			downDur = downTimer.Elapsed()
			rec.AddSpan(telemetry.SpanDownSweep, 0, downTimer.StartTime(), downDur)
		}
	}
	farDur := upDur + downDur + l2pDur

	graphTimer := sched.StartTimer()
	counts := costmodel.FromTree(t.CountOps())
	graph := vcpu.BuildFMMGraph(t, s.Cfg.CPU.Base, vcpu.FMMGraphOptions{
		IncludeP2P:     s.Cl == nil,
		FarFieldPasses: passes,
		P2PCostFactor: float64(kernels.FlopsPerStokesletInteraction) /
			float64(kernels.FlopsPerGravityInteraction),
	})
	rec.AddSpan(telemetry.SpanGraph, 0, graphTimer.StartTime(), graphTimer.Elapsed())
	simTok := rec.Begin(telemetry.SpanVCPUSim, 0)
	res := s.Cfg.CPU.Simulate(graph)
	rec.End(simTok)

	st := StepTimes{CPUTime: res.Makespan, GPUTime: gpuTime, Counts: counts}
	st.Compute = math.Max(st.CPUTime, st.GPUTime)

	obsTimer := sched.StartTimer()
	var obs costmodel.Observation
	obs.Counts = counts
	var opBusy float64
	for op := costmodel.Op(0); op < costmodel.NumOps; op++ {
		opBusy += res.BusyTime[op]
	}
	if opBusy > 0 {
		for op := costmodel.P2M; op <= costmodel.L2P; op++ {
			obs.Time[op] = res.Makespan * res.BusyTime[op] / opBusy
		}
		if s.Cl == nil {
			obs.Time[costmodel.P2P] = res.Makespan * res.BusyTime[costmodel.P2P] / opBusy
		}
	}
	if s.Cl != nil {
		obs.Time[costmodel.P2P] = gpuTime
	}
	s.Model.Observe(obs)
	// Re-derive the GPU prediction on capacity change (see core.Solver).
	if s.Cl != nil {
		if ep := s.Cl.CapacityEpoch(); ep != s.capEpoch {
			newCap := s.Cl.Capacity()
			if newCap > 0 && s.capVal > 0 {
				s.Model.ScaleGPU(s.capVal / newCap)
			}
			s.capEpoch = ep
			s.capVal = newCap
		}
	}
	rec.AddSpan(telemetry.SpanObserve, 0, obsTimer.StartTime(), obsTimer.Elapsed())

	if rec.Enabled() {
		var c64 [telemetry.NumOps]int64
		var opTime, coef [telemetry.NumOps]float64
		for op := costmodel.Op(0); op < costmodel.NumOps; op++ {
			c64[op] = counts[op]
			opTime[op] = obs.Time[op]
			coef[op] = s.Model.Coef[op]
		}
		rec.SetOps(c64, opTime, coef)
		rec.SetSolveTimes(st.CPUTime, st.GPUTime, res.Efficiency(s.Cfg.CPU.Cores), 0)
		if s.Cl != nil {
			for _, d := range s.Cl.Devices {
				rec.AddDevice(d.KernelTime, d.Interactions, d.HostTime)
			}
		}
		s.classDelta = s.Cfg.Pool.ClassBusyNs(s.classDelta[:0])
		for i := range s.classDelta {
			if i < len(s.classSnap) {
				s.classDelta[i] -= s.classSnap[i]
			}
		}
		rec.SetClassBusy(s.classDelta)
	}
	wall := wallTimer.Elapsed()
	st.Host = telemetry.HostPhases{
		List: listDur, Far: farDur, Near: nearDur,
		Wall: wall, SerialWall: wall, Overlapped: overlapped || taskGraphed,
	}
	if overlapped || taskGraphed {
		// The graph region includes L2P; the fork-join overlap runs it
		// after the join, outside the region.
		st.Host.SerialWall = wall - overlapRegion + nearDur + upDur + downDur
		if taskGraphed {
			st.Host.SerialWall += l2pDur
		}
		// Back to back cannot beat overlapped (see core.Solver.Solve).
		st.Host.SerialWall = max(st.Host.SerialWall, wall)
		rec.SetOverlap(st.Host.SerialWall)
	}
	rec.End(solveTok)
	return st
}

// reservedDrivers resolves Config.ReservedDrivers (see the core solver).
func (s *Solver) reservedDrivers() int {
	k := s.Cfg.ReservedDrivers
	if k < 0 {
		return 0
	}
	if k == 0 {
		if s.Cl == nil {
			return 0
		}
		k = len(s.Cl.Devices)
	}
	if maxK := s.Cfg.Pool.Workers() - 1; k > maxK {
		k = maxK
	}
	return k
}

func (s *Solver) ensureSlabs() {
	need := len(s.Tree.Nodes) * s.packedLen
	for k := 0; k < passes; k++ {
		if cap(s.multipoles[k]) < need {
			s.multipoles[k] = make([]complex128, need)
			s.locals[k] = make([]complex128, need)
		}
		s.multipoles[k] = s.multipoles[k][:need]
		s.locals[k] = s.locals[k][:need]
		for i := range s.multipoles[k] {
			s.multipoles[k][i] = 0
			s.locals[k][i] = 0
		}
	}
}

func (s *Solver) mpole(k int, ni int32) expansion.Expansion {
	off := int(ni) * s.packedLen
	return expansion.Expansion{P: s.Cfg.P, C: s.multipoles[k][off : off+s.packedLen]}
}

func (s *Solver) local(k int, ni int32) expansion.Expansion {
	off := int(ni) * s.packedLen
	return expansion.Expansion{P: s.Cfg.P, C: s.locals[k][off : off+s.packedLen]}
}

// mpoles4 and locals4 return node ni's four harmonic expansions.
func (s *Solver) mpoles4(ni int32) (m [passes]expansion.Expansion) {
	for k := range m {
		m[k] = s.mpole(k, ni)
	}
	return m
}

func (s *Solver) locals4(ni int32) (l [passes]expansion.Expansion) {
	for k := range l {
		l[k] = s.local(k, ni)
	}
	return l
}

// Charges returns the four harmonic charges of a body at x carrying the
// force f: f_x, f_y, f_z and f·x, one per pass.
func Charges(f, x geom.Vec3) [passes]float64 {
	return [passes]float64{f.X, f.Y, f.Z, f.Dot(x)}
}

// Combine assembles 8 pi mu u(x) from the four harmonic potentials and
// gradients at x (the package comment's decomposition).
func Combine(x geom.Vec3, phi *[passes]float64, g *[passes]geom.Vec3) geom.Vec3 {
	return geom.Vec3{
		X: phi[0] - (x.X*g[0].X + x.Y*g[1].X + x.Z*g[2].X) + g[3].X,
		Y: phi[1] - (x.X*g[0].Y + x.Y*g[1].Y + x.Z*g[2].Y) + g[3].Y,
		Z: phi[2] - (x.X*g[0].Z + x.Y*g[1].Z + x.Z*g[2].Z) + g[3].Z,
	}
}

func (s *Solver) p2pPair(target, source int32) {
	t := s.Tree
	sys := s.Sys
	tn := &t.Nodes[target]
	sn := &t.Nodes[source]
	s.Cfg.Kernel.P2P(
		sys.Pos[tn.Start:tn.End],
		sys.Acc[tn.Start:tn.End],
		sys.Pos[sn.Start:sn.End],
		sys.Aux[sn.Start:sn.End],
	)
}

// runCPUNearField mirrors core: the cached CSR near-field schedule in
// interaction-count-weighted chunks.
func (s *Solver) runCPUNearField() {
	sch := s.Tree.NearField()
	s.Cfg.Pool.ParallelRangeWeightedClass(sched.ClassNear, sch.Weights, func(lo, hi int) {
		s.nearFieldChunk(sch, lo, hi)
	})
}

// nearFieldChunk executes CSR rows [lo, hi) of the near-field schedule —
// the chunk body shared by the level-synchronous parallel range and the
// task-graph near nodes. Rows run in order and each row's sources in
// schedule order, so the accumulation order per body is independent of
// how chunks are scheduled.
func (s *Solver) nearFieldChunk(sch *octree.NearSchedule, lo, hi int) {
	t := s.Tree
	sys := s.Sys
	for r := lo; r < hi; r++ {
		tn := &t.Nodes[sch.Leaves[r]]
		xt := sys.Pos[tn.Start:tn.End]
		vel := sys.Acc[tn.Start:tn.End]
		for k := sch.RowPtr[r]; k < sch.RowPtr[r+1]; k++ {
			s.Cfg.Kernel.P2P(xt, vel,
				sys.Pos[sch.SrcStart[k]:sch.SrcEnd[k]],
				sys.Aux[sch.SrcStart[k]:sch.SrcEnd[k]])
		}
	}
}

func (s *Solver) getWS() *expansion.Workspace {
	select {
	case w := <-s.wsFree:
		return w
	default:
		return expansion.NewWorkspace(s.Cfg.P)
	}
}

func (s *Solver) putWS(w *expansion.Workspace) {
	select {
	case s.wsFree <- w:
	default:
	}
}

func (s *Solver) upSweep() {
	if s.Cfg.SweepMode == core.SweepRecursive {
		s.upSweepRecursive()
		return
	}
	s.upSweepLevels()
}

// downSweep resolves the near-field schedule on entry, like core's: the
// direct masks it reads must follow the current occupancy.
func (s *Solver) downSweep() {
	s.Tree.NearField()
	if s.Cfg.SweepMode == core.SweepRecursive {
		s.downSweepRecursive()
		return
	}
	s.downSweepLevels(true)
}

// upSweepLevels / downSweepLevels are the level-synchronous sweeps of
// core, run for all four harmonic passes of the Stokeslet decomposition.
// Each level is one flat parallel range weighted by per-node work.
func (s *Solver) upSweepLevels() {
	t := s.Tree
	levels := t.LevelOrder()
	for lv := len(levels) - 1; lv >= 0; lv-- {
		nodes := levels[lv]
		if len(nodes) == 0 {
			continue
		}
		weights := s.levelWeights(nodes, s.upWeight)
		s.Cfg.Pool.ParallelRangeWeightedClass(sched.ClassFar, weights, func(lo, hi int) {
			w := s.getWS()
			for _, ni := range nodes[lo:hi] {
				s.upNode(w, ni)
			}
			s.putWS(w)
		})
	}
}

// upNode computes node ni's four multipoles: at a leaf one harmonic
// evaluation per body feeds all four charges; above, each pass translates
// its children's multipoles. Every pass writes only its own slab, in the
// order a pass-by-pass sweep would.
func (s *Solver) upNode(w *expansion.Workspace, ni int32) {
	t := s.Tree
	n := &t.Nodes[ni]
	if n.IsVisibleLeaf() {
		m := s.mpoles4(ni)
		for i := n.Start; i < n.End; i++ {
			w.P2M4(&m, n.Box.Center, s.Sys.Pos[i], Charges(s.Sys.Aux[i], s.Sys.Pos[i]))
		}
		return
	}
	for k := 0; k < passes; k++ {
		m := s.mpole(k, ni)
		for _, ci := range n.Children {
			if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
				if s.Cfg.UseRotatedTranslations {
					w.M2MRotated(m, n.Box.Center, s.mpole(k, ci), t.Nodes[ci].Box.Center)
				} else {
					w.M2M(m, n.Box.Center, s.mpole(k, ci), t.Nodes[ci].Box.Center)
				}
			}
		}
	}
}

func (s *Solver) downSweepLevels(withL2P bool) {
	levels := s.Tree.LevelOrder()
	for lv := 0; lv < len(levels); lv++ {
		nodes := levels[lv]
		if len(nodes) == 0 {
			continue
		}
		weights := s.levelWeights(nodes, s.downWeight)
		s.Cfg.Pool.ParallelRangeWeightedClass(sched.ClassFar, weights, func(lo, hi int) {
			w := s.getWS()
			for _, ni := range nodes[lo:hi] {
				s.downNode(w, ni, withL2P)
			}
			s.putWS(w)
		})
	}
}

// downNode applies L2L per pass and then node ni's V list to all four
// locals at once: the passes translate over one geometry, so each V pair
// is one four-column translation (core.SharedM2L.M2L4). Per pass the
// operations and their order are those of a pass-by-pass sweep.
func (s *Solver) downNode(w *expansion.Workspace, ni int32, withL2P bool) {
	t := s.Tree
	n := &t.Nodes[ni]
	l := s.locals4(ni)
	if parent := n.Parent; parent != octree.NilNode {
		for k := range l {
			if s.Cfg.UseRotatedTranslations {
				w.L2LRotated(l[k], n.Box.Center, s.local(k, parent), t.Nodes[parent].Box.Center)
			} else {
				w.L2L(l[k], n.Box.Center, s.local(k, parent), t.Nodes[parent].Box.Center)
			}
		}
	}
	if len(n.V) > 0 {
		srcs := w.Sources4(len(n.V))
		for _, vi := range n.V {
			srcs = append(srcs, expansion.M2LSource4{M: s.mpoles4(vi), From: t.Nodes[vi].Box.Center})
		}
		s.m2l.M2L4(w, &l, t, ni, srcs)
	}
	if withL2P && n.IsVisibleLeaf() {
		s.leafL2P(w, ni)
	}
}

// leafL2P evaluates the four finalized harmonic locals of one visible
// leaf — one harmonic evaluation per body — and combines them into the
// Stokeslet velocity: per body, exactly one addition onto the
// near-field-accumulated value, fused or split (the bit-identity argument
// of the overlapped path).
func (s *Solver) leafL2P(w *expansion.Workspace, ni int32) {
	n := &s.Tree.Nodes[ni]
	l := s.locals4(ni)
	c0 := 1 / (8 * math.Pi * s.Cfg.Kernel.Mu)
	for i := n.Start; i < n.End; i++ {
		x := s.Sys.Pos[i]
		phi, grad := w.L2P4(&l, n.Box.Center, x)
		s.Sys.Acc[i] = s.Sys.Acc[i].Add(Combine(x, &phi, &grad).Scale(c0))
	}
}

// l2pSweep runs the split-out leaf evaluation after the overlap join.
func (s *Solver) l2pSweep() {
	t := s.Tree
	leaves := t.VisibleLeaves()
	if len(leaves) == 0 {
		return
	}
	weights := s.levelWeights(leaves, func(ni int32) int64 {
		return int64(t.Nodes[ni].Count()) + 1
	})
	s.Cfg.Pool.ParallelRangeWeightedClass(sched.ClassFar, weights, func(lo, hi int) {
		w := s.getWS()
		for _, ni := range leaves[lo:hi] {
			s.leafL2P(w, ni)
		}
		s.putWS(w)
	})
}

// Per-node chunking weights of the sweeps and the task graph (all four
// passes scale every node equally, so the constant factor drops out): up
// sweeps weigh leaf bodies, down sweeps the translated V-list pairs —
// entries the near-field schedule sums directly cost the far field nothing.
func (s *Solver) upWeight(ni int32) int64 {
	if n := &s.Tree.Nodes[ni]; n.IsVisibleLeaf() {
		return int64(n.Count()) + 1
	}
	return 33
}

func (s *Solver) downWeight(ni int32) int64 {
	n := &s.Tree.Nodes[ni]
	w := int64(s.Tree.FarPairs(ni))*12 + 5
	if n.IsVisibleLeaf() {
		w += int64(n.Count())
	}
	return w
}

// levelWeights fills the scratch weight buffer for one level.
func (s *Solver) levelWeights(nodes []int32, weight func(ni int32) int64) []int64 {
	if cap(s.weightBuf) < len(nodes) {
		s.weightBuf = make([]int64, len(nodes))
	}
	buf := s.weightBuf[:len(nodes)]
	for i, ni := range nodes {
		buf[i] = weight(ni)
	}
	return buf
}

func (s *Solver) upSweepRecursive() {
	var rec func(ni int32)
	rec = func(ni int32) {
		t := s.Tree
		n := &t.Nodes[ni]
		if !n.IsVisibleLeaf() {
			g := s.Cfg.Pool.NewGroup()
			for _, ci := range n.Children {
				if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
					ci := ci
					g.Spawn(func() { rec(ci) })
				}
			}
			g.Wait()
		}
		w := s.getWS()
		s.upNode(w, ni)
		s.putWS(w)
	}
	if s.Tree.Nodes[s.Tree.Root].Count() > 0 {
		rec(s.Tree.Root)
	}
}

// downSweepRecursive keeps the per-pair direct (or rotated) M2L, pass by
// pass: the reference form the batched sweeps are compared against.
func (s *Solver) downSweepRecursive() {
	var rec func(ni, parent int32)
	rec = func(ni, parent int32) {
		t := s.Tree
		n := &t.Nodes[ni]
		w := s.getWS()
		direct := t.DirectMask(ni)
		for k := 0; k < passes; k++ {
			l := s.local(k, ni)
			if parent != octree.NilNode {
				if s.Cfg.UseRotatedTranslations {
					w.L2LRotated(l, n.Box.Center, s.local(k, parent), t.Nodes[parent].Box.Center)
				} else {
					w.L2L(l, n.Box.Center, s.local(k, parent), t.Nodes[parent].Box.Center)
				}
			}
			for j, vi := range n.V {
				if direct[j] {
					continue // summed by the near-field schedule
				}
				if s.Cfg.UseRotatedTranslations {
					w.M2LRotated(l, n.Box.Center, s.mpole(k, vi), t.Nodes[vi].Box.Center)
				} else {
					w.M2L(l, n.Box.Center, s.mpole(k, vi), t.Nodes[vi].Box.Center)
				}
			}
		}
		if n.IsVisibleLeaf() {
			s.leafL2P(w, ni)
			s.putWS(w)
			return
		}
		s.putWS(w)
		grp := s.Cfg.Pool.NewGroup()
		for _, ci := range n.Children {
			if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
				ci := ci
				grp.Spawn(func() { rec(ci, ni) })
			}
		}
		grp.Wait()
	}
	if s.Tree.Nodes[s.Tree.Root].Count() > 0 {
		rec(s.Tree.Root, octree.NilNode)
	}
}

// DirectVelocities computes exact regularized-Stokeslet velocities by
// direct summation (in storage order), the correctness baseline.
func DirectVelocities(sys *particle.System, k kernels.Stokeslet) []geom.Vec3 {
	n := sys.Len()
	out := make([]geom.Vec3, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out[i] = out[i].Add(k.Velocity(sys.Pos[i], sys.Pos[j], sys.Aux[j]))
		}
	}
	return out
}
