package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"afmm/internal/balance"
	"afmm/internal/sched"
	"afmm/internal/telemetry"
)

// layerResult is the outcome of a traced pass over one workload: every
// per-layer metric, the spans behind them, and the checks that tie the
// traced loop to the public one.
type layerResult struct {
	metrics     map[string]float64
	spans       []span
	problems    []string
	attempted   int
	failed      int
	posHash     uint64
	stepWallMs  float64 // median over the traced round's timed steps
	modelStepMs float64
}

// reference runs a fresh instance of w through the public loop for one
// round and returns its timed step walls, modeled step time and final
// position hash.
func reference(w *workload, seed int64, pool *sched.Pool) (walls []float64, modelMs float64, hash uint64, err error) {
	in, err := newInstance(w, seed, pool)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := in.coldStep(); err != nil {
		return nil, 0, 0, err
	}
	_, first := w.totalSteps()
	samples, err := in.run(first, w.steps)
	if err != nil {
		return nil, 0, 0, err
	}
	var model float64
	for _, s := range samples {
		walls = append(walls, float64(s.wallNs)/1e6)
		model += s.model
	}
	return walls, 1e3 * model / float64(w.steps), positionHash(in.sys), nil
}

// measureLayers runs the traced pass: one traced round, the layer replays
// on the tree it leaves, and the reference runs the traced loop is checked
// against.
func measureLayers(w *workload, seed int64, pool *sched.Pool) (layerResult, error) {
	res := layerResult{metrics: map[string]float64{}}
	m := res.metrics
	for _, s := range perLayer {
		m[s.Name] = 0
	}
	total, first := w.totalSteps()

	in, err := newInstance(w, seed, pool)
	if err != nil {
		return res, err
	}
	res.attempted += total
	td, err := tracedRound(in, 0)
	if err != nil {
		res.failed++
		return res, err
	}
	tr := td.tr
	res.spans = tr.spans
	res.posHash = td.posHash
	n := float64(td.steps)
	walls := tr.stepWallsMs(first)
	res.stepWallMs = median(walls)
	res.modelStepMs = 1e3 * td.model / n
	m["model_step_ms"] = res.modelStepMs

	// Spans: calls the loop makes into each layer, mean per timed step.
	m["octree.refill_ms"] = tr.meanMs("octree.refill", first)
	m["octree.lists_step_ms"] = tr.meanMs("octree.lists", first)
	m["octree.nearfield_ms"] = tr.meanMs("octree.nearfield", first)
	m["octree.m2lclasses_ms"] = tr.meanMs("octree.m2lclasses", first)
	m["sim.integrate_ms"] = tr.meanMs("sim.integrate", first)
	m["balance.afterstep_ms"] = tr.meanMs("balance.afterstep", first)
	m["stokes.forces_ms"] = tr.meanMs("stokes.forces", first)
	m["bench.span_coverage"] = tr.coverage(first)
	m["sim.step_wall_mean_ms"] = mean(walls)
	m["sim.step_wall_p10_ms"] = quantile(walls, 0.1)
	m["sim.step_wall_p90_ms"] = quantile(walls, 0.9)

	m["octree.list_pairs"] = float64(td.lists.Pairs)
	m["octree.lists_full"] = float64(td.lists.FullBuilds)
	m["octree.lists_repair"] = float64(td.lists.Repairs)
	m["octree.lists_skip"] = float64(td.lists.Skips)

	// The solve's own split of its wall time. other = what the serial-
	// equivalent wall has beyond lists, far and near field: accumulator
	// reset, slabs, M2L table, the virtual CPU graph and its replay, the
	// cost-model fold.
	ms := func(d time.Duration) float64 { return 1e3 * d.Seconds() / n }
	if w.kind != kindDmem {
		pre := "core."
		if w.kind == kindStokes {
			pre = "stokes."
		}
		m[pre+"solve_ms"] = ms(td.solve)
		m[pre+"list_ms"] = ms(td.list)
		m[pre+"far_ms"] = ms(td.far)
		m[pre+"near_ms"] = ms(td.near)
		m[pre+"other_ms"] = ms(td.serial - td.list - td.far - td.near)
		if td.serial > 0 {
			m[pre+"phase_coverage"] = float64(td.list+td.far+td.near) / float64(td.serial)
		}
		m["vcpu.model_cpu_ms"] = 1e3 * td.cpuModel / n
		m["vcpu.eff"] = td.cpuEff / n
		m["vgpu.model_kernel_ms"] = 1e3 * td.gpuModel / n
		m["vgpu.eff"] = td.gpuEff / n
		m["costmodel.predict_err"] = mean(td.predictErr)
		if td.compute > 0 {
			m["model_lb_pct"] = 100 * td.lb / td.compute
		}
		m["balance.rebuilds"] = float64(td.rebuilds)
		m["balance.enforce_steps"] = float64(td.enforced)
		m["balance.finegrain_steps"] = float64(td.fineGrained)
		m["balance.steps_search"] = float64(td.states[balance.Search])
		m["balance.steps_incremental"] = float64(td.states[balance.Incremental])
		m["balance.steps_observation"] = float64(td.states[balance.Observation])
	}
	m["balance.s_final"] = float64(td.finalS)
	if in.grav != nil {
		gs := in.grav.TaskGraphStats()
		m["sched.graph_nodes"] = float64(gs.Nodes)
		m["sched.graph_edges"] = float64(gs.Edges)
		m["sched.max_ready"] = float64(gs.MaxReady)
		m["sched.locality_hits"] = float64(gs.LocalityHits)
	}
	if wallSum := mean(walls) * float64(len(walls)); wallSum > 0 {
		m["sched.cpu_util"] = 1e3 * td.cpuTime.Seconds() / (wallSum * float64(pool.Workers()))
	}
	if w.kind == kindDmem {
		m["dmem.solve_ms"] = tr.meanMs("solve", first)
		m["dmem.comm_mb_per_step"] = float64(td.bytes) / 1e6 / n
		m["dmem.msgs_per_step"] = float64(td.msgs) / n
		m["dmem.imbalance"] = td.imbalance / n
		if td.comm > 0 {
			m["dmem.hidden_frac"] = td.hidden / td.comm
		}
		m["dmem.rebalances"] = float64(td.rebalances)
		if td.rebalances > 0 {
			m["dmem.rebalance_ms"] = tr.totalMs("dmem.rebalance") / float64(td.rebalances)
		}
		m["dmem.frames_sent"] = float64(td.frames)
		m["dmem.retries"] = float64(td.retries)
	}

	if err := in.replays(seed, m); err != nil {
		return res, err
	}

	// What the solver retains once everything else is collected: tables,
	// slabs, lists, schedules, caches (and the round's few hundred spans).
	// Two collections, because a sync.Pool hands its contents on for one.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m["live_heap_mb"] = float64(mem.HeapAlloc) / 1e6
	runtime.KeepAlive(in)

	// Reference runs through the public loop. The traced loop is the same
	// program only if it moves every body to the same place and models the
	// same step time.
	same := func(what string, hash uint64, modelMs float64) {
		if hash != td.posHash {
			res.problems = append(res.problems, fmt.Sprintf("%s: final positions differ from the traced loop's (%016x vs %016x)", what, hash, td.posHash))
		}
		if modelMs != res.modelStepMs {
			res.problems = append(res.problems, fmt.Sprintf("%s: model_step_ms %v differs from the traced loop's %v", what, modelMs, res.modelStepMs))
		}
	}
	// What tracing costs: a public round and a traced round, both as the
	// end-to-end pass runs them — one thread, at nominal host speed — where
	// two rounds compare to a few percent; by the clock they would differ
	// by the host's drift. The public round is a reference run as well.
	res.attempted += 2 * total
	public, err := runRound(w, seed, pool, false)
	if err != nil {
		res.failed++
		return res, err
	}
	same("public loop", public.posHash, public.modelStepMs)
	steady, err := steadyTracedRound(w, seed, pool)
	if err != nil {
		res.failed++
		return res, err
	}
	m["bench.trace_overhead_frac"] = median(steady)/median(public.wallMs) - 1
	res.attempted += total
	if w.kind == kindDmem {
		// The single-node twin: the same bodies under one core.Solver. The
		// distributed run must reproduce its positions bit for bit.
		twin := *w
		twin.kind, twin.pinS = kindGravity, true
		single, _, hash, err := reference(&twin, seed, pool)
		if err != nil {
			res.failed++
			return res, err
		}
		if hash != td.posHash {
			res.problems = append(res.problems, fmt.Sprintf("single-node twin: final positions differ (%016x vs %016x)", hash, td.posHash))
		}
		m["dmem.vs_single_ratio"] = res.stepWallMs / median(single)
	} else {
		// One worker: the public loop on the level-synchronous path, which
		// must agree bit for bit with the task graph, and T(1) for the
		// parallel efficiency E = T(1) / (W T(W)).
		serial, modelMs, hash, err := reference(w, seed, sched.NewPool(1))
		if err != nil {
			res.failed++
			return res, err
		}
		same("public loop on one worker", hash, modelMs)
		m["sched.par_eff"] = median(serial) / (float64(pool.Workers()) * res.stepWallMs)
	}

	if w.kind == kindStokes {
		f, err := telemetryOverhead(w, seed, pool)
		if err != nil {
			return res, err
		}
		m["telemetry.overhead_frac"] = f
	}
	return res, nil
}

// steadyTracedRound runs one traced round the way runRound runs a public
// one and returns its timed step walls in ms at nominal host speed.
func steadyTracedRound(w *workload, seed int64, pool *sched.Pool) ([]float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	in, err := newInstance(w, seed, pool)
	if err != nil {
		return nil, err
	}
	speed := startSampler()
	defer speed.stop()
	td, err := tracedRound(in, 1)
	if err != nil {
		return nil, err
	}
	speed.stop()
	var walls []float64
	tr := td.tr
	for _, s := range tr.spans {
		if s.Name == "step" && s.Step >= td.first {
			a, b := tr.epoch.Add(time.Duration(s.StartNs)), tr.epoch.Add(time.Duration(s.EndNs))
			walls = append(walls, 1e3*speed.atNominal(a, b).Seconds())
		}
	}
	return walls, nil
}

// overheadPairs is the number of alternating step pairs behind
// telemetry.overhead_frac.
const overheadPairs = 12

// telemetryOverhead advances two instances of w in alternation, one step
// at a time, one of them with a telemetry.Recorder writing JSONL to
// io.Discard, and returns the ratio of their median step walls minus one.
// Alternating keeps host drift out of the ratio.
func telemetryOverhead(w *workload, seed int64, pool *sched.Pool) (float64, error) {
	var ins [2]*instance
	for i := range ins {
		in, err := newInstance(w, seed, pool)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			in.rec = telemetry.New(telemetry.Options{JSONL: io.Discard})
		}
		if _, err := in.run(0, 1); err != nil {
			return 0, err
		}
		ins[i] = in
	}
	var walls [2][]float64
	for k := 0; k < overheadPairs; k++ {
		for i, in := range ins {
			s, err := in.run(1+k, 1)
			if err != nil {
				return 0, err
			}
			walls[i] = append(walls[i], float64(s[0].wallNs))
		}
	}
	return median(walls[0])/median(walls[1]) - 1, nil
}
