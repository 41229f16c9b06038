// Package afmm is a Go implementation of the adaptive fast multipole
// method (AFMM) with dynamic load balancing for heterogeneous CPU+GPU
// nodes, reproducing Overman, Prins, Miller & Minion, "Dynamic Load
// Balancing of the Adaptive Fast Multipole Method in Heterogeneous
// Systems" (IEEE IPDPSW 2013).
//
// The library provides:
//
//   - a spherical-harmonics AFMM for the Laplace/gravity kernel and a
//     regularized-Stokeslet solver built on a four-harmonic decomposition
//     (NewGravitySolver, NewStokesSolver);
//   - an adaptive octree with the paper's tree-modification primitives
//     (Collapse, PushDown, Enforce_S, Refill);
//   - a simulated heterogeneous machine — a SIMT GPU cluster model and a
//     multicore task-schedule replayer — standing in for the CUDA + OpenMP
//     hardware of the paper (see DESIGN.md for the substitution argument);
//   - the paper's dynamic load balancer: Search / Incremental /
//     Observation states, observed-coefficient time prediction, Enforce_S
//     and FineGrainedOptimize;
//   - simulation drivers, deterministic workload generators, and a full
//     experiment harness regenerating every table and figure of the paper.
//
// Quick start:
//
//	sys := afmm.Plummer(100000, 1.0, 1.0, 42)
//	solver := afmm.NewGravitySolver(sys, afmm.GravityConfig{
//		S: 64, NumGPUs: 2,
//	})
//	times := solver.Solve() // sys.Acc now holds accelerations
//	fmt.Println(times.Compute)
//
// The types below are aliases of the implementation packages under
// internal/; the facade is the supported public surface.
package afmm

import (
	"afmm/internal/autotune"
	"afmm/internal/balance"
	"afmm/internal/checkpoint"
	"afmm/internal/core"
	"afmm/internal/costmodel"
	"afmm/internal/distrib"
	"afmm/internal/dmem"
	"afmm/internal/fault"
	"afmm/internal/fieldgrid"
	"afmm/internal/geom"
	"afmm/internal/kernels"
	"afmm/internal/metrics"
	"afmm/internal/octree"
	"afmm/internal/particle"
	"afmm/internal/sched"
	"afmm/internal/sim"
	"afmm/internal/stokes"
	"afmm/internal/telemetry"
	"afmm/internal/vcpu"
	"afmm/internal/vgpu"
)

// Geometry and bodies.
type (
	// Vec3 is a 3-D vector.
	Vec3 = geom.Vec3
	// Box is an axis-aligned cube (center + half-width).
	Box = geom.Box
	// System holds the bodies in structure-of-arrays layout.
	System = particle.System
)

// NewSystem creates a system of n unit-mass bodies.
func NewSystem(n int) *System { return particle.New(n) }

// Distributions (deterministic under a seed).
var (
	// Plummer samples the Plummer sphere used throughout the paper.
	Plummer = distrib.Plummer
	// UniformCube samples a uniform box distribution.
	UniformCube = distrib.UniformCube
	// UniformShell samples a hollow sphere (adversarial adaptivity case).
	UniformShell = distrib.UniformShell
	// TwoClusters samples two colliding Plummer spheres.
	TwoClusters = distrib.TwoClusters
	// SpiralDisk samples a rotating exponential disk.
	SpiralDisk = distrib.SpiralDisk
)

// Kernels.
type (
	// GravityKernel is the (optionally softened) Newtonian kernel.
	GravityKernel = kernels.Gravity
	// StokesletKernel is the regularized Stokeslet of Cortez.
	StokesletKernel = kernels.Stokeslet
)

// Decomposition.
type (
	// Tree is the adaptive octree decomposition.
	Tree = octree.Tree
	// TreeMode selects adaptive (AFMM) or uniform (FMM) decomposition.
	TreeMode = octree.Mode
)

// Tree modes.
const (
	Adaptive = octree.Adaptive
	Uniform  = octree.Uniform
)

// Solvers.
type (
	// GravityConfig configures the heterogeneous gravity solver.
	GravityConfig = core.Config
	// GravitySolver is the heterogeneous AFMM engine for gravity.
	GravitySolver = core.Solver
	// StepTimes is the virtual-machine timing of one solve.
	StepTimes = core.StepTimes
	// StokesConfig configures the regularized-Stokeslet solver.
	StokesConfig = stokes.Config
	// StokesSolver evaluates Stokeslet velocities via four harmonic FMMs.
	StokesSolver = stokes.Solver
	// Boundary is an immersed flexible structure (fiber or ring).
	Boundary = stokes.Boundary
)

// NewGravitySolver builds the AFMM over the system's bodies.
func NewGravitySolver(sys *System, cfg GravityConfig) *GravitySolver {
	return core.NewSolver(sys, cfg)
}

// NewStokesSolver builds the regularized-Stokeslet AFMM; forces are read
// from sys.Aux and velocities written to sys.Acc.
func NewStokesSolver(sys *System, cfg StokesConfig) *StokesSolver {
	return stokes.NewSolver(sys, cfg)
}

// AllPairsGravity computes the exact direct-sum reference (storage order).
var AllPairsGravity = core.AllPairsReference

// ErrorBound is the a-priori truncation-error summary of a solve's lists.
type ErrorBound = core.ErrorBound

// AllPairsStokes computes exact regularized-Stokeslet velocities.
var AllPairsStokes = stokes.DirectVelocities

// Immersed boundaries.
var (
	// NewRing builds a closed elastic ring of markers.
	NewRing = stokes.Ring
	// NewFiber builds an open elastic fiber of markers.
	NewFiber = stokes.Fiber
	// NewHelix builds a helical fiber (the helical-swimming geometry of
	// the paper's ref. [15]).
	NewHelix = stokes.Helix
	// RotletForces adds tangential driving forces about an axis.
	RotletForces = stokes.RotletForces
	// ClearForces zeroes the force accumulator (sys.Aux).
	ClearForces = stokes.ClearForces
)

// Load balancing.
type (
	// Balancer is the paper's dynamic load balancer.
	Balancer = balance.Balancer
	// BalanceConfig tunes the balancer.
	BalanceConfig = balance.Config
	// BalanceTarget is the solver surface the balancer drives.
	BalanceTarget = balance.Target
	// Strategy selects one of the paper's three balancing schemes.
	Strategy = balance.Strategy
	// BalancerState is the Search/Incremental/Observation state.
	BalancerState = balance.State
	// BalanceStepTimes is the CPU/GPU timing pair the balancer consumes.
	BalanceStepTimes = balance.StepTimes
)

// The three strategies of §IX.A.
const (
	StrategyStatic  = balance.StrategyStatic
	StrategyEnforce = balance.StrategyEnforce
	StrategyFull    = balance.StrategyFull
)

// NewBalancer creates a balancer for a system of n bodies.
func NewBalancer(cfg BalanceConfig, n int) *Balancer { return balance.New(cfg, n) }

// Simulation drivers.
type (
	// SimConfig controls a time-dependent run.
	SimConfig = sim.Config
	// SimResult aggregates per-step records.
	SimResult = sim.Result
	// SimStepRecord is one step's timing/balance record.
	SimStepRecord = sim.StepRecord
)

// Simulation entry points and diagnostics.
var (
	// RunGravity advances a gravitational simulation under a strategy.
	RunGravity = sim.RunGravity
	// RunStokes advances an overdamped Stokes simulation.
	RunStokes = sim.RunStokes
	// Energies returns kinetic and potential energy after a solve.
	Energies = sim.Energies
	// KickDrift is the symplectic integrator step.
	KickDrift = sim.KickDrift
	// SuggestDt proposes an adaptive time step from the accelerations.
	SuggestDt = sim.SuggestDt
	// AngularMomentum returns the total angular momentum about the origin.
	AngularMomentum = sim.AngularMomentum
)

// Step-trace telemetry (see docs/OBSERVABILITY.md).
type (
	// Recorder captures per-step spans, balancer events, device samples
	// and worker utilization; a nil *Recorder is a valid no-op.
	Recorder = telemetry.Recorder
	// RecorderOptions configures a Recorder (JSONL sink, in-memory keep).
	RecorderOptions = telemetry.Options
	// TelemetryStepRecord is the per-step record a Recorder emits.
	TelemetryStepRecord = telemetry.StepRecord
	// MetricsRegistry is the live metrics registry (counters, gauges,
	// histograms) the recorder fills from each step record; the debug
	// server serves it as Prometheus text on /metrics.
	MetricsRegistry = metrics.Registry
	// FlightRecorder retains the last K step records in memory and dumps
	// them to disk when a fault, failed step, or sentinel anomaly fires.
	FlightRecorder = telemetry.FlightRecorder
	// SentinelConfig tunes the step-time regression sentinel.
	SentinelConfig = telemetry.SentinelConfig
	// TelemetryDebugServer is a running debug endpoint (/, /metrics,
	// /status, /flightrec, /debug/pprof) with graceful Shutdown.
	TelemetryDebugServer = telemetry.DebugServer
)

// Telemetry entry points.
var (
	// NewRecorder creates a step-trace recorder.
	NewRecorder = telemetry.New
	// NewMetricsRegistry creates an empty metrics registry for
	// RecorderOptions.Metrics.
	NewMetricsRegistry = metrics.NewRegistry
	// NewFlightRecorder creates a flight-recorder ring for
	// RecorderOptions.Flight (k <= 0 selects the default 32 steps; an
	// empty dir keeps the ring queryable but never dumps).
	NewFlightRecorder = telemetry.NewFlightRecorder
	// StartTelemetryDebug starts the debug server (dashboard, metrics,
	// status, flight ring, pprof) and returns a handle with Shutdown.
	StartTelemetryDebug = telemetry.StartDebug
)

// Virtual machine.
type (
	// CPUSpec is the virtual multicore model.
	CPUSpec = vcpu.Spec
	// GPUSpec is the simulated SIMT device model.
	GPUSpec = vgpu.Spec
	// CostModel carries observed per-operation coefficients (§IV.D).
	CostModel = costmodel.Model
	// Op identifies one of the six FMM operations.
	Op = costmodel.Op
)

// Machine model constructors.
var (
	// DefaultCPU returns the Xeon-X5670-like core model.
	DefaultCPU = vcpu.DefaultSpec
	// DefaultGPU returns the Tesla-C2050-like device model.
	DefaultGPU = vgpu.DefaultSpec
	// NewPool creates the real task-parallel worker pool.
	NewPool = sched.NewPool
)

// Distributed-memory extension (simulated cluster, paper §II).
type (
	// ClusterConfig assembles the distributed solver.
	ClusterConfig = dmem.Config
	// ClusterSolver runs the AFMM over a simulated multi-node cluster.
	ClusterSolver = dmem.Solver
	// ClusterNodeSpec describes one virtual node.
	ClusterNodeSpec = dmem.NodeSpec
	// ClusterStepReport is the per-node timing/communication report.
	ClusterStepReport = dmem.StepReport
	// NetworkSpec is the alpha-beta interconnect model.
	NetworkSpec = dmem.NetworkSpec
)

// Distributed-memory run loop and link layer.
type (
	// ClusterRunConfig drives a multi-step distributed run.
	ClusterRunConfig = dmem.RunConfig
	// ClusterRunResult summarizes a multi-step distributed run.
	ClusterRunResult = dmem.RunResult
	// ClusterNetStats is the link layer's delivery activity, the step
	// record's net sample.
	ClusterNetStats = telemetry.NetSample
	// LinkSchedule is a parsed deterministic per-link fault schedule.
	LinkSchedule = fault.LinkSchedule
	// NodeFaultEvent is one scheduled virtual-node fail-stop.
	NodeFaultEvent = fault.NodeEvent
)

// Cluster constructors and helpers.
var (
	// NewClusterSolver builds the distributed solver.
	NewClusterSolver = dmem.NewSolver
	// HomogeneousNodes replicates one node spec.
	HomogeneousNodes = dmem.HomogeneousNodes
	// DefaultNetwork models a commodity interconnect.
	DefaultNetwork = dmem.DefaultNetwork
	// ScaledGPU derates the device model for scaled-down problems.
	ScaledGPU = vgpu.ScaledSpec
	// ParseClusterEvents splits a mixed node/link fault spec, e.g.
	// "node2:failstop@step3,link0-1:drop0.1@step2".
	ParseClusterEvents = fault.ParseClusterEvents
	// ParseLinkEvents parses a pure link-fault spec.
	ParseLinkEvents = fault.ParseLinkEvents
	// RandomLinkSchedule draws a seeded random link-fault schedule.
	RandomLinkSchedule = fault.RandomLinks
)

// Automatic parameter tuning (paper ref. [8]).
type (
	// TuneRequest describes an accuracy/machine tuning goal.
	TuneRequest = autotune.Request
	// TuneChoice is the selected (P, S) with predicted cost.
	TuneChoice = autotune.Choice
)

// Tune selects the expansion order and leaf capacity for a target accuracy
// on a machine, using the cost model (no numeric work).
var Tune = autotune.Tune

// Checkpointing.
type (
	// Snapshot is a serializable simulation state.
	Snapshot = checkpoint.Snapshot
)

// Checkpoint entry points.
var (
	// CaptureSnapshot copies the system state (plus S and step info).
	CaptureSnapshot = checkpoint.Capture
	// CaptureSnapshotState additionally captures the balancer's FSM state,
	// so a resumed run continues in Observation instead of re-searching.
	CaptureSnapshotState = checkpoint.CaptureState
	// WriteSnapshot gob-encodes a snapshot.
	WriteSnapshot = checkpoint.Write
	// ReadSnapshot decodes a snapshot.
	ReadSnapshot = checkpoint.Read
	// WriteSnapshotFile atomically persists a snapshot (temp file +
	// rename), so a crash mid-write never truncates a good checkpoint.
	WriteSnapshotFile = checkpoint.WriteFile
	// ReadSnapshotFile loads a snapshot written by WriteSnapshotFile.
	ReadSnapshotFile = checkpoint.ReadFile
)

// SimCheckpointFile is the rolling auto-checkpoint filename the
// simulation loop writes inside SimConfig.CheckpointDir.
const SimCheckpointFile = sim.CheckpointFile

// Fault injection and resilience (see docs/RESILIENCE.md).
type (
	// FaultSchedule is a parsed deterministic fault-injection schedule.
	FaultSchedule = fault.Schedule
	// FaultInjector drives a schedule against the simulated devices.
	FaultInjector = fault.Injector
	// FaultKind identifies a fault class (fail-stop, hang, straggle,
	// transient, corrupt).
	FaultKind = fault.Kind
	// WatchdogConfig tunes the device watchdog: heartbeat deadline,
	// transient-retry budget and backoff, fallback chunking.
	WatchdogConfig = vgpu.WatchdogConfig
	// FaultReport summarizes fault handling for a solve's near field.
	FaultReport = vgpu.FaultReport
	// DeviceFault is one device transition recorded during a solve.
	DeviceFault = vgpu.DeviceFault
	// ValidationError reports a non-finite accumulator caught by the
	// opt-in post-solve validation (GravityConfig.Validate).
	ValidationError = core.ValidationError
)

// Fault-injection entry points.
var (
	// ParseFaultSchedule parses the fault spec grammar, e.g.
	// "gpu1:failstop@step12,gpu0:straggle2.5@step20".
	ParseFaultSchedule = fault.Parse
	// RandomFaultSchedule draws a seeded random schedule (soak testing).
	RandomFaultSchedule = fault.Random
	// NewFaultInjector builds the injector a solver consults per chunk
	// (GravityConfig.Faults / StokesConfig.Faults).
	NewFaultInjector = fault.NewInjector
)

// Field sampling on regular lattices (visualization).
type (
	// FieldGrid is a regular probe lattice.
	FieldGrid = fieldgrid.Grid
)

// Field-grid helpers.
var (
	// CoveringGrid builds an n^3 lattice covering a box.
	CoveringGrid = fieldgrid.Covering
	// SampleField evaluates potential and field on a lattice.
	SampleField = fieldgrid.Sample
	// WriteFieldCSV samples a lattice and writes CSV rows.
	WriteFieldCSV = fieldgrid.WriteCSV
)

// Snapshot interchange (extended-XYZ).
var (
	// WriteXYZ writes "mass x y z vx vy vz" rows in input order.
	WriteXYZ = particle.WriteXYZ
	// ReadXYZ parses the WriteXYZ format.
	ReadXYZ = particle.ReadXYZ
)
