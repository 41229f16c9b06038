// Package core implements the heterogeneous AFMM solver of the paper: the
// far-field expansion phases (P2M, M2M, M2L, L2L, L2P) executed by CPU
// task parallelism over the adaptive octree, concurrently with the
// near-field (P2P) work on the (simulated) GPUs, under the paper's timing
// definitions — CPU Time is the up-sweep-to-down-sweep span, GPU Time is
// the maximum per-device kernel time, Compute Time is their maximum.
package core

import (
	"math"
	"time"

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

// Profile adapts the timing model to the physical problem: the Stokes
// solver performs four harmonic far-field passes per solve and its direct
// kernel is costlier per interaction than gravity's.
type Profile struct {
	FarFieldPasses int
	P2PCostFactor  float64
}

// GravityProfile is the single-pass Laplace profile.
func GravityProfile() Profile { return Profile{FarFieldPasses: 1, P2PCostFactor: 1} }

// StokesProfile reflects the 4-harmonic decomposition (M2L cost ~4x the
// gravitational problem, §IX.B) and the regularized Stokeslet P2P cost.
func StokesProfile() Profile {
	return Profile{
		FarFieldPasses: 4,
		P2PCostFactor:  float64(kernels.FlopsPerStokesletInteraction) / float64(kernels.FlopsPerGravityInteraction),
	}
}

// SweepMode selects how the far-field phases execute on the host.
type SweepMode int

const (
	// SweepLevelSync (the default) executes the sweeps as flat,
	// level-synchronous parallel ranges over Tree.LevelOrder: one barrier
	// per level instead of a task per node, interaction-weighted chunking,
	// long-lived per-worker workspaces, and each node's V list applied
	// through the batched rotation-accelerated M2L, whose per-direction
	// setup comes from the shared class table (SharedM2L). M2M/L2L still
	// follow UseRotatedTranslations; the M2L results agree with the direct
	// operators to rounding.
	SweepLevelSync SweepMode = iota
	// SweepRecursive is the legacy task-recursive execution mirroring the
	// paper's OpenMP pattern (a task per octree child, taskwait at the
	// parent), kept for A/B comparison and as the schedule the virtual
	// CPU model replays.
	SweepRecursive
)

// OverlapMode selects whether Solve executes the near-field sweep
// concurrently with the far-field up-sweep and M2L work — the paper's
// host-side CPU/GPU concurrency (§V): kernels are launched, the CPU runs
// the expansion phases, and the blocking collect happens before the
// leaf evaluation.
type OverlapMode int

const (
	// OverlapAuto (the default) overlaps the phases whenever the solve is
	// eligible: level-synchronous sweeps with both a near and a far phase
	// present. Results are bit-identical to the sequential path — the
	// phases converge before L2P, the only point where far-field values
	// reach the body accumulators.
	OverlapAuto OverlapMode = iota
	// OverlapOff forces the sequential near-then-far execution.
	OverlapOff
)

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
	// Kernel is the gravity kernel (G, softening).
	Kernel kernels.Gravity
	// Pool runs the real computation; nil creates a GOMAXPROCS pool.
	Pool *sched.Pool
	// CPU is the virtual CPU subsystem (cores, base coefficients).
	CPU vcpu.Spec
	// NumGPUs and GPUSpec define the simulated device cluster; zero GPUs
	// runs the near field on the virtual CPU (serial/CPU-only configs).
	NumGPUs int
	GPUSpec vgpu.Spec
	// Profile adapts timing to the physical problem.
	Profile Profile
	// SkipFarField disables the far-field numeric execution (used by
	// harnesses that only study timing behaviour at scale). Timing is
	// unaffected; accelerations are then near-field only.
	SkipFarField bool
	// SkipNearField likewise disables the numeric P2P execution; the
	// device timing model still runs. With both Skip flags set a Solve
	// is a pure timing dry run (no forces are produced).
	SkipNearField bool
	// SweepMode selects the host execution of the far field:
	// level-synchronous flat sweeps (default) or the legacy task
	// recursion. Both modes compute the same expansions; results agree to
	// rounding. The virtual-machine timing model is mode-independent.
	SweepMode SweepMode
	// UseRotatedTranslations switches M2M/M2L/L2L to the O(p^3)
	// rotation-accelerated ("point and shoot") operators. Numerically
	// equivalent to the direct O(p^4) operators up to rounding; faster
	// for P >= ~6. The virtual-machine cost model is unchanged (the
	// paper's implementation uses direct translations), so this only
	// affects host wall time.
	UseRotatedTranslations bool
	// DisableListCache turns off the persistent interaction-list cache:
	// every solve re-runs the full dual traversal and rebuilds the
	// near-field schedule from scratch (octree.Config.NoListCache). Kept
	// for A/B measurement; results are bit-identical either way.
	DisableListCache bool
	// Overlap controls the concurrent near/far host execution (see
	// OverlapMode). The default OverlapAuto enables it on eligible solves;
	// cmd tools expose -no-overlap to force OverlapOff.
	Overlap OverlapMode
	// TaskGraph opts the solve into the dependency-driven execution path:
	// the whole step is expressed as a task DAG (per-level P2M/M2M chunks
	// feeding M2L feeding L2L, near-field chunks as independent roots,
	// joined only at each leaf's L2P) and drained by the pool's ready
	// queues, removing the per-level barriers of the level-synchronous
	// sweeps. Results are bit-identical to the fork-join paths: every
	// expansion is computed wholly inside one graph node with a fixed
	// internal operation order, and each body still receives near-field
	// contributions in CSR row order plus exactly one L2P addition. The
	// path supersedes Overlap (near/far concurrency is inherent in the
	// graph) and engages only on eligible solves: level-synchronous mode,
	// a far field present, and Pool.Workers() >= 2 (a single worker could
	// only time-slice the graph). cmd tools enable it by default and
	// expose -no-taskgraph.
	TaskGraph bool
	// DisableM2LTable turns off the shared M2L translation-class table:
	// every translation then recomputes its setup (Workspace.M2LBatch, the
	// uncached reference form of the same kernel). Kept as the A/B switch
	// of the == tests; results are bit-identical either way.
	DisableM2LTable bool
	// ReservedDrivers is the number of pool worker slots dedicated to the
	// near-field class while the phases overlap — the paper's "one core
	// per GPU driver thread". 0 (default) reserves one slot per simulated
	// device (none on CPU-only configs, where near and far instead share
	// all slots); -1 disables reservation explicitly; a positive value is
	// used as given. Always clamped to Pool.Workers()-1 so the far field
	// keeps at least one slot.
	ReservedDrivers int
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
	// fault injector: device runs consult it per chunk, the watchdog
	// monitor starts, and dead devices' work is recovered by the host
	// fallback. Nil (the default) executes the exact pre-fault paths.
	Faults *fault.Injector
	// Watchdog tunes fault detection and recovery (zero value =
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
	if c.Profile.FarFieldPasses == 0 {
		c.Profile = GravityProfile()
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

// Solver is the heterogeneous AFMM engine.
type Solver struct {
	Cfg     Config
	Sys     *particle.System
	Tree    *octree.Tree
	Cluster *vgpu.Cluster
	Model   *costmodel.Model

	packedLen  int
	multipoles []complex128
	locals     []complex128
	// wsFree is a free-list of long-lived operator workspaces, one per
	// concurrently executing chunk. Unlike a sync.Pool it never discards
	// entries, so the M2L geometry caches inside the workspaces survive
	// across levels and across solves.
	wsFree    chan *expansion.Workspace
	weightBuf []int64
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

	// taskStats holds the graph statistics of the most recent task-graph
	// Solve (see taskgraph.go); benchmarks read it via TaskGraphStats.
	taskStats sched.GraphStats
}

// NewSolver builds the decomposition and the device cluster.
func NewSolver(sys *particle.System, cfg Config) *Solver {
	cfg.setDefaults()
	s := &Solver{
		Cfg:       cfg,
		Sys:       sys,
		packedLen: sphharm.PackedLen(cfg.P),
	}
	s.wsFree = make(chan *expansion.Workspace, cfg.Pool.Workers()+8)
	s.Tree = octree.Build(sys, octree.Config{
		S:           cfg.S,
		MaxDepth:    cfg.MaxDepth,
		Mode:        cfg.Mode,
		MAC:         cfg.MAC,
		Pool:        cfg.Pool,
		NoListCache: cfg.DisableListCache,
	})
	s.Tree.SetDirectK(DirectK(cfg.P))
	if cfg.NumGPUs > 0 {
		s.Cluster = vgpu.NewCluster(cfg.NumGPUs, cfg.GPUSpec)
		s.Cluster.Rec = cfg.Rec
		s.Cluster.Injector = cfg.Faults
		s.Cluster.Watchdog = cfg.Watchdog
		// Host fallback rate: how fast the virtual CPU would grind P2P
		// interactions, for charging recovered rows in virtual time.
		if base := cfg.CPU.Base[costmodel.P2P] * cfg.Profile.P2PCostFactor; base > 0 {
			s.Cluster.HostP2PRate = float64(cfg.CPU.Cores) / base
		}
		// Corrupt faults poison one accumulator of the chunk's first
		// target leaf — a silent-data-corruption stand-in the Validate
		// guard must catch before integration.
		s.Cluster.Corrupt = func(target int32) {
			n := &s.Tree.Nodes[target]
			if n.Count() > 0 {
				s.Sys.Phi[n.Start] = math.NaN()
			}
		}
		s.capEpoch = s.Cluster.CapacityEpoch()
		s.capVal = s.Cluster.Capacity()
	}
	s.Model = costmodel.NewModel(s.priorCoefficients())
	return s
}

// SetRecorder attaches (or detaches, with nil) the telemetry recorder,
// propagating it to the device cluster. When the recorder carries a
// metrics registry, the solver's pool, cluster, and injector register
// their scrape-time series on it.
func (s *Solver) SetRecorder(rec *telemetry.Recorder) {
	s.Cfg.Rec = rec
	if s.Cluster != nil {
		s.Cluster.Rec = rec
	}
	if reg := rec.Metrics(); reg.Enabled() {
		s.Cfg.Pool.RegisterMetrics(reg)
		s.Cluster.RegisterMetrics(reg)
		if s.Cluster != nil {
			s.Cluster.Injector.RegisterMetrics(reg)
		}
	}
}

// priorCoefficients predicts costs before any observation: base CPU costs
// spread over the cores, and the device's ideal interaction rate.
func (s *Solver) priorCoefficients() costmodel.Coefficients {
	var c costmodel.Coefficients
	k := float64(s.Cfg.CPU.Cores)
	if k < 1 {
		k = 1
	}
	passes := float64(s.Cfg.Profile.FarFieldPasses)
	for op := costmodel.P2M; op <= costmodel.L2P; op++ {
		c[op] = s.Cfg.CPU.Base[op] * passes / k
	}
	if s.Cfg.NumGPUs > 0 {
		rate := s.Cfg.GPUSpec.InteractionsPerSecPerSM * float64(s.Cfg.GPUSpec.SMs) * float64(s.Cfg.NumGPUs)
		c[costmodel.P2P] = s.Cfg.Profile.P2PCostFactor / rate
	} else {
		c[costmodel.P2P] = s.Cfg.CPU.Base[costmodel.P2P] * s.Cfg.Profile.P2PCostFactor / k
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

// Solve runs one full FMM evaluation: potentials and accelerations for
// every body, and the virtual-machine timing of the step.
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
	// Resolve the near-field schedule here, on the solve goroutine: its
	// rows (and the translated-pair counts behind the far-field weights)
	// follow this step's occupancy, and every phase below — near drivers,
	// sweeps, graph nodes — only reads it.
	sch := t.NearField()
	rec.SetDirect(sch.DirectPairs, sch.DirectInteractions)
	rec.AddSpan(telemetry.SpanPrep, 0, prepTimer.StartTime(), prepTimer.Elapsed())

	// Kernel-speed preparation, before the near/far fork: the shared M2L
	// class table must be complete before any worker translates.
	s.prepareM2LTable()

	// Execute the near-field "kernels" and the far-field traversal. The
	// near phase is launched exactly like the paper's concurrent kernel
	// launch: on the overlapped path (the default) a driver goroutine walks
	// the device chunks / CPU P2P schedule while this goroutine runs the
	// up sweep and M2L work, and the blocking collect (the join) happens
	// before L2P — the only operator that moves far-field values into the
	// body accumulators, which is what keeps the result bit-identical to
	// the sequential order. The sequential path remains for -no-overlap,
	// the recursive sweeps, and single-phase configurations.
	var gpuTime float64
	var nearDur, upDur, downDur, l2pDur time.Duration
	taskGraphed := s.taskGraphEligible()
	overlapped := !taskGraphed && s.overlapEligible()
	runNear := func() {
		nearTimer := sched.StartTimer()
		if s.Cluster != nil {
			fn := vgpu.P2PFunc(s.p2pPair)
			if s.Cfg.SkipNearField {
				fn = nil
			}
			gpuTime = s.Cluster.ExecuteParallel(t, fn, s.Cfg.Pool)
			nearDur = nearTimer.Elapsed()
			rec.AddSpan(telemetry.SpanNearExec, 0, nearTimer.StartTime(), nearDur)
		} else if !s.Cfg.SkipNearField {
			s.runCPUNearField()
			nearDur = nearTimer.Elapsed()
			rec.AddSpan(telemetry.SpanNearCPU, 0, nearTimer.StartTime(), nearDur)
		}
	}
	if s.Cluster != nil {
		s.Cluster.Partition(t)
	}
	var overlapRegion time.Duration
	if taskGraphed {
		// Dependency-driven path: the whole near+far step runs as one task
		// DAG (see taskgraph.go); L2P is inside the graph, so there is no
		// separate sweep after the region.
		tg := s.solveTaskGraph()
		gpuTime = tg.gpuTime
		nearDur, upDur, downDur, l2pDur = tg.near, tg.up, tg.down, tg.l2p
		overlapRegion = tg.region
	} else if overlapped {
		// The near phase reads only tree caches resolved above (NearField
		// also resolves VisibleLeaves); the far sweeps touch LevelOrder
		// from this goroutine only.
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
		<-join // collect: both phases converge before L2P
		if nearPanic != nil {
			// Re-raise the driver goroutine's failure on the solve
			// goroutine, where SolveChecked's recover can see it.
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
	offload := s.Cfg.OffloadEndpoints && s.Cluster != nil
	graph := vcpu.BuildFMMGraph(t, s.Cfg.CPU.Base, vcpu.FMMGraphOptions{
		IncludeP2P:       s.Cluster == nil,
		FarFieldPasses:   s.Cfg.Profile.FarFieldPasses,
		P2PCostFactor:    s.Cfg.Profile.P2PCostFactor,
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
		passes := float64(s.Cfg.Profile.FarFieldPasses)
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

	if rec.Enabled() {
		var c64 [telemetry.NumOps]int64
		var opTime, coef [telemetry.NumOps]float64
		for op := costmodel.Op(0); op < costmodel.NumOps; op++ {
			c64[op] = counts[op]
			opTime[op] = obs.Time[op]
			coef[op] = s.Model.Coef[op]
		}
		rec.SetOps(c64, opTime, coef)
		rec.SetSolveTimes(st.CPUTime, st.GPUTime, st.CPUEff, st.GPUEff)
		if s.Cluster != nil {
			for _, d := range s.Cluster.Devices {
				rec.AddDevice(d.KernelTime, d.Interactions, d.HostTime)
			}
		}
		s.busyDelta = s.Cfg.Pool.WorkerBusyNs(s.busyDelta[:0])
		for i := range s.busyDelta {
			if i < len(s.busySnap) {
				s.busyDelta[i] -= s.busySnap[i]
			}
		}
		rec.SetWorkerBusy(s.busyDelta)
		s.classDelta = s.Cfg.Pool.ClassBusyNs(s.classDelta[:0])
		for i := range s.classDelta {
			if i < len(s.classSnap) {
				s.classDelta[i] -= s.classSnap[i]
			}
		}
		rec.SetClassBusy(s.classDelta)
	}
	st.Real = timer.Elapsed()
	st.Host = telemetry.HostPhases{
		List: listDur, Far: farDur, Near: nearDur,
		Wall: st.Real, SerialWall: st.Real, Overlapped: overlapped || taskGraphed,
	}
	if overlapped || taskGraphed {
		// Serial-equivalent wall: replace the overlapped region with what
		// the same phases would have cost back-to-back. The graph region
		// includes L2P (the fork-join overlap runs it after the join, so
		// its cost is already outside the region there).
		st.Host.SerialWall = st.Real - overlapRegion + nearDur + upDur + downDur
		if taskGraphed {
			st.Host.SerialWall += l2pDur
		}
		// Back to back cannot beat overlapped: the graph's per-phase span
		// unions leave out the moments no node was running (worker
		// wake-up, a descheduled worker), so on a busy host their sum can
		// fall short of the region they tile.
		st.Host.SerialWall = max(st.Host.SerialWall, st.Real)
		rec.SetOverlap(st.Host.SerialWall)
	}
	rec.End(solveTok)
	return st
}

// overlapEligible reports whether this Solve may run its near and far
// phases concurrently: overlap not disabled, level-synchronous sweeps
// (the recursive mode exists to mirror the paper's task schedule, not to
// be fast), a pool that can actually run two phases at once (a
// single-worker pool would only time-slice them — all context-switch
// and cache-thrash cost, zero concurrency), and both phases actually
// present. A device cluster counts as a near phase even under
// SkipNearField — the timing walk still runs.
func (s *Solver) overlapEligible() bool {
	if s.Cfg.Overlap == OverlapOff || s.Cfg.SweepMode != SweepLevelSync {
		return false
	}
	if s.Cfg.SkipFarField || s.Cfg.Pool.Workers() < 2 {
		return false
	}
	return s.Cluster != nil || !s.Cfg.SkipNearField
}

// reservedDrivers resolves Config.ReservedDrivers against the cluster and
// pool geometry: auto (0) means one slot per device, none without devices.
func (s *Solver) reservedDrivers() int {
	k := s.Cfg.ReservedDrivers
	if k < 0 {
		return 0
	}
	if k == 0 {
		if s.Cluster == nil {
			return 0
		}
		k = len(s.Cluster.Devices)
	}
	if maxK := s.Cfg.Pool.Workers() - 1; k > maxK {
		k = maxK
	}
	return k
}

// SweepBench executes the far-field sweeps and one CPU near-field pass on
// the current tree under the configured SweepMode, returning host
// wall-clock durations per phase. It resets accumulators and expansion
// slabs first, so repeated calls are independent; cmd/afmm-bench uses it
// for the old-vs-new sweep report.
func (s *Solver) SweepBench() (up, down, near time.Duration) {
	s.Tree.BuildLists()
	s.Tree.NearField()
	s.Sys.ResetAccumulators()
	s.ensureSlabs()
	s.prepareM2LTable()
	upT := sched.StartTimer()
	s.upSweep()
	up = upT.Elapsed()
	downT := sched.StartTimer()
	s.downSweep()
	down = downT.Elapsed()
	nearT := sched.StartTimer()
	s.runCPUNearField()
	near = nearT.Elapsed()
	return up, down, near
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

func (s *Solver) ensureSlabs() {
	need := len(s.Tree.Nodes) * s.packedLen
	if cap(s.multipoles) < need {
		s.multipoles = make([]complex128, need)
		s.locals = make([]complex128, need)
	}
	s.multipoles = s.multipoles[:need]
	s.locals = s.locals[:need]
	for i := range s.multipoles {
		s.multipoles[i] = 0
		s.locals[i] = 0
	}
}

func (s *Solver) mpole(ni int32) expansion.Expansion {
	off := int(ni) * s.packedLen
	return expansion.Expansion{P: s.Cfg.P, C: s.multipoles[off : off+s.packedLen]}
}

func (s *Solver) local(ni int32) expansion.Expansion {
	off := int(ni) * s.packedLen
	return expansion.Expansion{P: s.Cfg.P, C: s.locals[off : off+s.packedLen]}
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

// p2pPair executes the direct interaction of one target/source leaf pair
// (the numeric work the simulated device performs).
func (s *Solver) p2pPair(target, source int32) {
	t := s.Tree
	sys := s.Sys
	tn := &t.Nodes[target]
	sn := &t.Nodes[source]
	s.Cfg.Kernel.P2P(
		sys.Pos[tn.Start:tn.End],
		sys.Phi[tn.Start:tn.End],
		sys.Acc[tn.Start:tn.End],
		sys.Pos[sn.Start:sn.End],
		sys.Mass[sn.Start:sn.End],
	)
}

// runCPUNearField executes the near-field schedule on the host pool
// (CPU-only configurations): the cached CSR rows in interaction-count-
// weighted chunks, so a few heavy leaves cannot serialize the tail.
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
		pot := sys.Phi[tn.Start:tn.End]
		acc := sys.Acc[tn.Start:tn.End]
		for k := sch.RowPtr[r]; k < sch.RowPtr[r+1]; k++ {
			s.Cfg.Kernel.P2P(xt, pot, acc,
				sys.Pos[sch.SrcStart[k]:sch.SrcEnd[k]],
				sys.Mass[sch.SrcStart[k]:sch.SrcEnd[k]])
		}
	}
}

// upSweep computes multipoles bottom-up; downSweep propagates locals
// top-down. Both dispatch on Config.SweepMode. The down sweep reads the
// direct masks, so it resolves the near-field schedule on entry (a no-op
// when Solve already did): no caller can sweep over unresolved masks.
func (s *Solver) upSweep() {
	if s.Cfg.SweepMode == SweepRecursive {
		s.upSweepRecursive()
		return
	}
	s.upSweepLevels()
}

func (s *Solver) downSweep() {
	s.Tree.NearField()
	if s.Cfg.SweepMode == SweepRecursive {
		s.downSweepRecursive()
		return
	}
	s.downSweepLevels(true)
}

// upSweepLevels walks the level index bottom-up: within a level every
// node's multipole depends only on the level below, so the nodes form one
// flat parallel range (weighted by per-node work) with a barrier per level
// instead of a task per node.
func (s *Solver) upSweepLevels() {
	t := s.Tree
	levels := t.LevelOrder()
	for lv := len(levels) - 1; lv >= 0; lv-- {
		nodes := levels[lv]
		if len(nodes) == 0 {
			continue
		}
		weights := s.levelWeights(nodes, s.upWeight)
		lvTimer := sched.StartTimer()
		s.Cfg.Pool.ParallelRangeWeightedClass(sched.ClassFar, weights, func(lo, hi int) {
			w := s.getWS()
			for _, ni := range nodes[lo:hi] {
				s.upNode(w, ni)
			}
			s.putWS(w)
		})
		s.Cfg.Rec.AddSpan(telemetry.SpanUpLevel, int32(lv), lvTimer.StartTime(), lvTimer.Elapsed())
	}
}

func (s *Solver) upNode(w *expansion.Workspace, ni int32) {
	t := s.Tree
	n := &t.Nodes[ni]
	m := s.mpole(ni)
	if n.IsVisibleLeaf() {
		for i := n.Start; i < n.End; i++ {
			w.P2M(m, n.Box.Center, s.Sys.Pos[i], s.Sys.Mass[i])
		}
		return
	}
	for _, ci := range n.Children {
		if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
			if s.Cfg.UseRotatedTranslations {
				w.M2MRotated(m, n.Box.Center, s.mpole(ci), t.Nodes[ci].Box.Center)
			} else {
				w.M2M(m, n.Box.Center, s.mpole(ci), t.Nodes[ci].Box.Center)
			}
		}
	}
}

// downSweepLevels walks the level index top-down: a node's local depends
// on its parent (previous level) and on V-list multipoles (finalized by
// the up sweep), so each level is one flat weighted parallel range. The
// V list is applied through the batched M2L, whose per-direction setup is
// read from the shared class table. withL2P selects whether
// leaves also evaluate L2P in place (the sequential fused path) or leave
// it for a later l2pSweep (the overlapped path, which must not touch the
// body accumulators while the near field is still writing them).
func (s *Solver) downSweepLevels(withL2P bool) {
	t := s.Tree
	levels := t.LevelOrder()
	for lv := 0; lv < len(levels); lv++ {
		nodes := levels[lv]
		if len(nodes) == 0 {
			continue
		}
		weights := s.levelWeights(nodes, s.downWeight)
		lvTimer := sched.StartTimer()
		s.Cfg.Pool.ParallelRangeWeightedClass(sched.ClassFar, weights, func(lo, hi int) {
			w := s.getWS()
			for _, ni := range nodes[lo:hi] {
				s.downNode(w, ni, withL2P)
			}
			s.putWS(w)
		})
		s.Cfg.Rec.AddSpan(telemetry.SpanDownLevel, int32(lv), lvTimer.StartTime(), lvTimer.Elapsed())
	}
}

// downNode applies L2L from the parent, batched M2L over the V list, and
// (on leaves, when withL2P) L2P.
func (s *Solver) downNode(w *expansion.Workspace, ni int32, withL2P bool) {
	t := s.Tree
	n := &t.Nodes[ni]
	l := s.local(ni)
	if parent := n.Parent; parent != octree.NilNode {
		if s.Cfg.UseRotatedTranslations {
			w.L2LRotated(l, n.Box.Center, s.local(parent), t.Nodes[parent].Box.Center)
		} else {
			w.L2L(l, n.Box.Center, s.local(parent), t.Nodes[parent].Box.Center)
		}
	}
	if len(n.V) > 0 {
		srcs := w.Sources(len(n.V))
		for _, vi := range n.V {
			srcs = append(srcs, expansion.M2LSource{M: s.mpole(vi), From: t.Nodes[vi].Box.Center})
		}
		s.m2l.M2L(w, l, t, ni, srcs)
	}
	if withL2P && n.IsVisibleLeaf() {
		s.leafL2P(w, ni)
	}
}

// leafL2P evaluates the finalized local expansion of one visible leaf at
// its bodies, adding potential and acceleration. This is the single
// accumulator-order-sensitive far-field write: per body it is exactly one
// addition onto the near-field-accumulated value, whether it runs fused
// inside the down sweep or split out after the overlap join — which is
// the bit-identity argument for the overlapped path.
func (s *Solver) leafL2P(w *expansion.Workspace, ni int32) {
	n := &s.Tree.Nodes[ni]
	l := s.local(ni)
	g := s.Cfg.Kernel.G
	for i := n.Start; i < n.End; i++ {
		phi, grad := w.L2P(l, n.Box.Center, s.Sys.Pos[i])
		s.Sys.Phi[i] += -g * phi
		s.Sys.Acc[i] = s.Sys.Acc[i].Add(grad.Scale(g))
	}
}

// l2pSweep runs the split-out leaf L2P evaluation after the overlap join:
// one flat weighted parallel range over the visible leaves.
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

// Rough per-node work weights for chunking a level. The constants only
// steer chunk boundaries; they need no calibration against the cost model.
const (
	m2lWeight = 12 // one M2L translation ~ this many per-body endpoint ops
	m2mWeight = 4  // one M2M/L2L translation
)

func (s *Solver) upWeight(ni int32) int64 {
	n := &s.Tree.Nodes[ni]
	if n.IsVisibleLeaf() {
		return int64(n.Count()) + 1
	}
	return 8*m2mWeight + 1
}

// downWeight weighs the translated pairs of the V list: entries the
// near-field schedule sums directly cost the far field nothing.
func (s *Solver) downWeight(ni int32) int64 {
	n := &s.Tree.Nodes[ni]
	w := int64(s.Tree.FarPairs(ni))*m2lWeight + m2mWeight + 1
	if n.IsVisibleLeaf() {
		w += int64(n.Count())
	}
	return w
}

// levelWeights fills the solver's scratch weight buffer for one level.
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

// upSweepRecursive computes multipoles bottom-up with the paper's
// recursive task pattern: spawn a task per child, taskwait, then combine
// (head recursion).
func (s *Solver) upSweepRecursive() {
	var rec func(ni int32)
	rec = func(ni int32) {
		t := s.Tree
		n := &t.Nodes[ni]
		if n.IsVisibleLeaf() {
			w := s.getWS()
			m := s.mpole(ni)
			for i := n.Start; i < n.End; i++ {
				w.P2M(m, n.Box.Center, s.Sys.Pos[i], s.Sys.Mass[i])
			}
			s.putWS(w)
			return
		}
		g := s.Cfg.Pool.NewGroup()
		for _, ci := range n.Children {
			if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
				ci := ci
				g.Spawn(func() { rec(ci) })
			}
		}
		g.Wait()
		w := s.getWS()
		m := s.mpole(ni)
		for _, ci := range n.Children {
			if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
				if s.Cfg.UseRotatedTranslations {
					w.M2MRotated(m, n.Box.Center, s.mpole(ci), t.Nodes[ci].Box.Center)
				} else {
					w.M2M(m, n.Box.Center, s.mpole(ci), t.Nodes[ci].Box.Center)
				}
			}
		}
		s.putWS(w)
	}
	if s.Tree.Nodes[s.Tree.Root].Count() > 0 {
		rec(s.Tree.Root)
	}
}

// downSweepRecursive propagates locals top-down: per node, L2L from the
// parent and M2L from the V list, then a task per child; leaves evaluate
// L2P.
func (s *Solver) downSweepRecursive() {
	g := s.Cfg.Kernel.G
	var rec func(ni, parent int32)
	rec = func(ni, parent int32) {
		t := s.Tree
		n := &t.Nodes[ni]
		w := s.getWS()
		l := s.local(ni)
		if parent != octree.NilNode {
			if s.Cfg.UseRotatedTranslations {
				w.L2LRotated(l, n.Box.Center, s.local(parent), t.Nodes[parent].Box.Center)
			} else {
				w.L2L(l, n.Box.Center, s.local(parent), t.Nodes[parent].Box.Center)
			}
		}
		direct := t.DirectMask(ni)
		for k, vi := range n.V {
			if direct[k] {
				continue // summed by the near-field schedule
			}
			if s.Cfg.UseRotatedTranslations {
				w.M2LRotated(l, n.Box.Center, s.mpole(vi), t.Nodes[vi].Box.Center)
			} else {
				w.M2L(l, n.Box.Center, s.mpole(vi), t.Nodes[vi].Box.Center)
			}
		}
		if n.IsVisibleLeaf() {
			for i := n.Start; i < n.End; i++ {
				phi, grad := w.L2P(l, n.Box.Center, s.Sys.Pos[i])
				s.Sys.Phi[i] += -g * phi
				s.Sys.Acc[i] = s.Sys.Acc[i].Add(grad.Scale(g))
			}
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
