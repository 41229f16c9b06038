package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"afmm/internal/sched"
)

// setupReps is how many times a round of a workload without a cold step
// constructs its solver: that set-up is milliseconds long, and one sample
// of it per round would be mostly timer and allocator noise.
const setupReps = 9

// round is one untraced pass over a workload with a fresh solver: set-up,
// then the timed steps through the public run loop.
type round struct {
	setupS        []float64 // one sample per construction, at nominal host speed
	wallMs        []float64 // one sample per timed step, at nominal host speed
	rawWallMs     []float64 // the same steps as the clock read them
	hostSpeed     float64   // mean of the round's speed samples; 1 is nominal
	allocsPerStep float64
	allocMBStep   float64
	modelStepMs   float64
	posHash       uint64
	forceErr      float64 // NaN unless probed
	attempted     int
	failed        int
}

// runRound executes one untraced round. With probe it also solves once
// more on the final state and measures force_rel_err against a direct sum.
func runRound(w *workload, seed int64, pool *sched.Pool, probe bool) (round, error) {
	// One OS thread: the pool keeps its workers, so the task-graph paths
	// run, but they take turns on one core. A probe can only stand for the
	// core it ran on, and a step that needs two cores at once waits for the
	// slower of two that drift independently (README.md, "Host speed").
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := round{forceErr: math.NaN()}
	_, first := w.totalSteps()
	var in *instance
	reps := 1
	if !w.coldSetup {
		reps = setupReps
	}
	speed := startSampler()
	defer speed.stop()
	var setups [][2]time.Time
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if in, err = newInstance(w, seed, pool); err != nil {
			return r, err
		}
		r.attempted += first
		if err := in.coldStep(); err != nil {
			r.failed++
			return r, fmt.Errorf("%s: cold step: %w", w.name, err)
		}
		setups = append(setups, [2]time.Time{t0, time.Now()})
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.attempted += w.steps
	samples, err := in.run(first, w.steps)
	runtime.ReadMemStats(&m1)
	speed.stop()
	if err != nil {
		r.failed += w.steps
		return r, fmt.Errorf("%s: timed steps: %w", w.name, err)
	}
	n := float64(w.steps)
	r.allocsPerStep = float64(m1.Mallocs-m0.Mallocs) / n
	r.allocMBStep = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / n
	for _, t := range setups {
		r.setupS = append(r.setupS, speed.atNominal(t[0], t[1]).Seconds())
	}
	var model float64
	for _, s := range samples {
		r.wallMs = append(r.wallMs, 1e3*speed.atNominal(s.start, s.end()).Seconds())
		r.rawWallMs = append(r.rawWallMs, float64(s.wallNs)/1e6)
		model += s.model
	}
	r.modelStepMs = 1e3 * model / n
	r.hostSpeed = mean(speed.speed)
	r.posHash = positionHash(in.sys)

	if probe {
		if err := in.probeSolve(); err != nil {
			r.failed++
			return r, fmt.Errorf("%s: probe solve: %w", w.name, err)
		}
		r.forceErr = in.forceRelErr()
	}
	// The next round starts from an empty heap, as this one did.
	in = nil
	runtime.GC()
	return r, nil
}

// probeSolve evaluates the field once on the current positions, outside
// any timing, so that sys.Acc matches sys.Pos for the accuracy check (the
// run loops refill the tree after the last solve, which permutes the
// bodies but not their accumulators).
func (in *instance) probeSolve() error {
	if in.w.kind == kindDmem {
		in.dm.Solve()
		return nil
	}
	in.evalForces()
	_, err := in.solveChecked()
	return err
}

// endToEndResult pools the rounds of one workload into the end-to-end
// metrics and runs the untraced correctness checks.
type endToEndResult struct {
	metrics   map[string]float64
	samples   int // timed steps behind step_wall_ms
	rounds    int
	attempted int
	failed    int
	problems  []string
	posHash   uint64
	// modelStepMs is the round's modeled step time; it is a per-layer
	// metric, kept here for the cross-pass check.
	modelStepMs float64
	// roundSpread is (max-min)/median of the per-round step-wall medians:
	// how far the host drifted between rounds of this very run.
	roundSpread float64
	p10, p90    float64
	// rawMs is the median step wall as the clock read it, hostSpeed the mean
	// of the speed samples: what step_wall_ms was computed from.
	rawMs, hostSpeed float64
}

func poolRounds(w *workload, rounds []round) endToEndResult {
	res := endToEndResult{metrics: map[string]float64{}, rounds: len(rounds)}
	var walls, raw, speeds, setups, allocs, mb, model, medians []float64
	forceErr := math.NaN()
	for _, r := range rounds {
		walls = append(walls, r.wallMs...)
		raw = append(raw, r.rawWallMs...)
		speeds = append(speeds, r.hostSpeed)
		setups = append(setups, r.setupS...)
		allocs = append(allocs, r.allocsPerStep)
		mb = append(mb, r.allocMBStep)
		model = append(model, r.modelStepMs)
		medians = append(medians, median(r.wallMs))
		if !math.IsNaN(r.forceErr) {
			forceErr = r.forceErr
		}
		res.attempted += r.attempted
		res.failed += r.failed
	}
	res.samples = len(walls)
	res.posHash = rounds[0].posHash
	res.metrics["step_wall_ms"] = median(walls)
	res.metrics["setup_s"] = median(setups)
	res.metrics["allocs_per_step"] = median(allocs)
	res.metrics["alloc_mb_per_step"] = median(mb)
	res.metrics["force_rel_err"] = forceErr
	res.modelStepMs = model[0]
	res.p10, res.p90 = quantile(walls, 0.1), quantile(walls, 0.9)
	res.rawMs, res.hostSpeed = median(raw), mean(speeds)
	if m := median(medians); m > 0 {
		res.roundSpread = (quantile(medians, 1) - quantile(medians, 0)) / m
	}

	// Checks. Modeled times and final positions come from virtual clocks
	// and deterministic numerics: every round must reproduce them exactly.
	if !allEqual(model) {
		res.problems = append(res.problems, fmt.Sprintf("model_step_ms differs across rounds: %v", model))
	}
	for i, r := range rounds {
		if r.posHash != res.posHash {
			res.problems = append(res.problems, fmt.Sprintf("round %d final positions differ from round 0 (%016x vs %016x)", i, r.posHash, res.posHash))
		}
	}
	if !(forceErr <= w.errCeil) {
		res.problems = append(res.problems, fmt.Sprintf("force_rel_err %.3g above ceiling %.3g", forceErr, w.errCeil))
	}
	if res.failed > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d of %d steps failed", res.failed, res.attempted))
	}
	return res
}
