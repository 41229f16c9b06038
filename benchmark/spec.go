package main

// metricSpec is one row of BENCHMARK.json. The tables below are the single
// source of the metric names; bench_test.go checks BENCHMARK.json against
// them, and newResult emits exactly the metrics listed.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// moves names the end-to-end metric a per-layer metric should move; it
	// is documentation (README.md carries the full table), not part of the
	// BENCHMARK.json schema.
	moves string
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is BENCHMARK.json's run_seconds: how much time the driver asks
// a run to measure. Rounds are whole, so a run measures somewhat more.
const runSeconds = 15

// endToEnd: what a user advancing a simulation pays per step. The two times
// are stated at nominal host speed (hostspeed.go). Bounds are at least three
// times the widest seed-to-seed spread measured on this commit (README.md,
// "Spread").
var endToEnd = []metricSpec{
	{Name: "step_wall_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "allocs_per_step", Unit: "count", Better: lower, Bound: 0.05},
	{Name: "alloc_mb_per_step", Unit: "MB", Better: lower, Bound: 0.05},
	{Name: "force_rel_err", Unit: "rel", Better: lower, Bound: 0.01},
}

// perLayer: one block per package under internal/. A metric that does not
// apply to a workload (dmem.* on a single-node workload, say) reads 0
// there.
var perLayer = []metricSpec{
	// The paper's own quantities on the simulated machine. They are
	// computed on virtual clocks, so they repeat exactly and are listed
	// here, without a bound, not among the measured end-to-end metrics.
	{Name: "model_step_ms", Unit: "ms", Better: lower, moves: "itself"},
	{Name: "model_lb_pct", Unit: "%", Better: lower, moves: "model_step_ms"},
	// What the solver retains. It has no bound because on two workloads a
	// third of it is a cache caught at a random fill level (README.md,
	// "End-to-end metrics").
	{Name: "live_heap_mb", Unit: "MB", Better: lower, moves: "itself"},

	{Name: "octree.build_ms", Unit: "ms", Better: lower, moves: "setup_s"},
	{Name: "octree.refill_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "octree.lists_step_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "octree.lists_full_ms", Unit: "ms", Better: lower, moves: "setup_s"},
	{Name: "octree.nearfield_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "octree.m2lclasses_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "octree.list_pairs", Unit: "count", Better: lower, moves: "step_wall_ms"},
	{Name: "octree.lists_full", Unit: "count", Better: lower, moves: "step_wall_ms"},
	{Name: "octree.lists_repair", Unit: "count", Better: lower, moves: "step_wall_ms"},
	{Name: "octree.lists_skip", Unit: "count", Better: higher, moves: "step_wall_ms"},
	{Name: "octree.m2l_classes", Unit: "count", Better: lower, moves: "setup_s"},
	{Name: "octree.leaves", Unit: "count", Better: lower, moves: "model_step_ms"},
	{Name: "octree.depth", Unit: "count", Better: lower, moves: "model_step_ms"},

	{Name: "expansion.m2l_ns", Unit: "ns", Better: lower, moves: "step_wall_ms"},
	{Name: "expansion.m2l_translations", Unit: "count", Better: lower, moves: "step_wall_ms"},
	{Name: "expansion.table_build_ms", Unit: "ms", Better: lower, moves: "setup_s"},
	{Name: "expansion.table_rot_coverage", Unit: "frac", Better: higher, moves: "allocs_per_step"},
	{Name: "expansion.m2l_allocs_per_kpair", Unit: "count", Better: lower, moves: "allocs_per_step"},
	{Name: "expansion.p2m_ns", Unit: "ns", Better: lower, moves: "step_wall_ms"},
	{Name: "expansion.m2m_ns", Unit: "ns", Better: lower, moves: "step_wall_ms"},
	{Name: "expansion.l2l_ns", Unit: "ns", Better: lower, moves: "step_wall_ms"},
	{Name: "expansion.l2p_ns", Unit: "ns", Better: lower, moves: "step_wall_ms"},

	{Name: "kernels.grav_pairs_per_s", Unit: "1/s", Better: higher, moves: "step_wall_ms"},
	{Name: "kernels.stokes_pairs_per_s", Unit: "1/s", Better: higher, moves: "step_wall_ms"},
	{Name: "kernels.near_pairs", Unit: "count", Better: lower, moves: "step_wall_ms"},

	{Name: "core.solve_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "core.list_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "core.far_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "core.near_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "core.other_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "core.phase_coverage", Unit: "frac", Better: higher, moves: "step_wall_ms"},
	{Name: "stokes.solve_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "stokes.list_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "stokes.far_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "stokes.near_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "stokes.other_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "stokes.phase_coverage", Unit: "frac", Better: higher, moves: "step_wall_ms"},
	{Name: "stokes.forces_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},

	{Name: "sched.par_eff", Unit: "frac", Better: higher, moves: "step_wall_ms"},
	{Name: "sched.cpu_util", Unit: "frac", Better: higher, moves: "step_wall_ms"},
	{Name: "sched.graph_nodes", Unit: "count", Better: lower, moves: "step_wall_ms"},
	{Name: "sched.graph_edges", Unit: "count", Better: lower, moves: "step_wall_ms"},
	{Name: "sched.max_ready", Unit: "count", Better: higher, moves: "step_wall_ms"},
	{Name: "sched.locality_hits", Unit: "count", Better: higher, moves: "step_wall_ms"},

	{Name: "vgpu.walk_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "vgpu.model_kernel_ms", Unit: "ms", Better: lower, moves: "model_step_ms"},
	{Name: "vgpu.eff", Unit: "frac", Better: higher, moves: "model_step_ms"},

	{Name: "vcpu.graph_sim_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "vcpu.model_cpu_ms", Unit: "ms", Better: lower, moves: "model_step_ms"},
	{Name: "vcpu.eff", Unit: "frac", Better: higher, moves: "model_step_ms"},

	{Name: "costmodel.predict_err", Unit: "rel", Better: lower, moves: "model_step_ms"},

	{Name: "balance.afterstep_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "balance.rebuilds", Unit: "count", Better: lower, moves: "model_step_ms"},
	{Name: "balance.enforce_steps", Unit: "count", Better: lower, moves: "model_step_ms"},
	{Name: "balance.finegrain_steps", Unit: "count", Better: lower, moves: "model_step_ms"},
	{Name: "balance.steps_search", Unit: "count", Better: lower, moves: "model_step_ms"},
	{Name: "balance.steps_incremental", Unit: "count", Better: lower, moves: "model_step_ms"},
	{Name: "balance.steps_observation", Unit: "count", Better: higher, moves: "model_step_ms"},
	{Name: "balance.s_final", Unit: "count", Better: lower, moves: "model_step_ms"},

	{Name: "sim.integrate_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "sim.step_wall_mean_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "sim.step_wall_p10_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "sim.step_wall_p90_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},

	{Name: "dmem.comm_mb_per_step", Unit: "MB", Better: lower, moves: "model_step_ms"},
	{Name: "dmem.msgs_per_step", Unit: "count", Better: lower, moves: "model_step_ms"},
	{Name: "dmem.imbalance", Unit: "ratio", Better: lower, moves: "model_step_ms"},
	{Name: "dmem.hidden_frac", Unit: "frac", Better: higher, moves: "model_step_ms"},
	{Name: "dmem.rebalances", Unit: "count", Better: lower, moves: "step_wall_ms"},
	{Name: "dmem.solve_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "dmem.rebalance_ms", Unit: "ms", Better: lower, moves: "step_wall_ms"},
	{Name: "dmem.frames_sent", Unit: "count", Better: lower, moves: "step_wall_ms"},
	{Name: "dmem.retries", Unit: "count", Better: lower, moves: "step_wall_ms"},
	{Name: "dmem.vs_single_ratio", Unit: "ratio", Better: lower, moves: "step_wall_ms"},

	{Name: "checkpoint.capture_ms", Unit: "ms", Better: lower, moves: "none"},
	{Name: "checkpoint.write_ms", Unit: "ms", Better: lower, moves: "none"},
	{Name: "checkpoint.bytes", Unit: "count", Better: lower, moves: "none"},

	{Name: "telemetry.overhead_frac", Unit: "frac", Better: lower, moves: "step_wall_ms"},
	{Name: "distrib.generate_ms", Unit: "ms", Better: lower, moves: "setup_s"},
	{Name: "bench.span_coverage", Unit: "frac", Better: higher, moves: "none"},
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: lower, moves: "none"},
}
