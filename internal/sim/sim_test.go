package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"afmm/internal/balance"
	"afmm/internal/core"
	"afmm/internal/distrib"
	"afmm/internal/geom"
	"afmm/internal/kernels"
	"afmm/internal/particle"
	"afmm/internal/stokes"
	"afmm/internal/telemetry"
	"afmm/internal/vgpu"
)

// dynamicSolver builds a cold truncated Plummer sphere (it violently
// collapses, bounces and virializes at a more concentrated profile) — the
// evolving workload of §IX.A, scaled down, on the derated device model.
func dynamicSolver(n int, seed int64) *core.Solver {
	sys := distrib.PlummerTruncated(n, 1, 1, 0.8, seed)
	for i := range sys.Vel {
		sys.Vel[i] = geom.Vec3{}
	}
	cfg := core.Config{
		P:       2,
		S:       64,
		NumGPUs: 2,
		GPUSpec: vgpu.ScaledSpec(1.0 / 64),
		Kernel:  kernels.Gravity{G: 1, Softening: 0.005},
	}
	cfg.CPU.Cores = 10
	return core.NewSolver(sys, cfg)
}

func simCfg(strategy balance.Strategy, steps int) Config {
	return Config{
		Dt:    2e-4,
		Steps: steps,
		Balance: balance.Config{
			Strategy: strategy,
		},
	}
}

func TestRunGravityProducesRecords(t *testing.T) {
	s := dynamicSolver(1200, 1)
	res := RunGravity(s, simCfg(balance.StrategyFull, 30))
	if len(res.Records) != 30 {
		t.Fatalf("got %d records", len(res.Records))
	}
	if res.TotalCompute <= 0 || res.TotalTime < res.TotalCompute {
		t.Fatalf("inconsistent totals: %+v", res)
	}
	for _, r := range res.Records {
		if r.Total < r.Compute || r.S <= 0 {
			t.Fatalf("bad record: %+v", r)
		}
	}
	if err := s.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyDriftBounded(t *testing.T) {
	// Symplectic integration of a mildly softened Plummer sphere should
	// not blow up over a few dozen steps.
	s := dynamicSolver(800, 2)
	s.Solve()
	k0, p0 := Energies(s.Sys)
	e0 := k0 + p0
	res := RunGravity(s, simCfg(balance.StrategyFull, 40))
	_ = res
	s.Solve()
	k1, p1 := Energies(s.Sys)
	e1 := k1 + p1
	if math.Abs(e1-e0) > 0.2*math.Abs(e0) {
		t.Fatalf("energy drifted: %g -> %g", e0, e1)
	}
}

func TestStrategyOrdering(t *testing.T) {
	// The paper's headline comparison (Table II): on the evolving
	// workload the full strategy's average per-step total beats the
	// enforce-only strategy, which beats the static strategy. The
	// contrast needs a body count where the near-field cost is sensitive
	// to leaf occupancy, so this test is long.
	if testing.Short() {
		t.Skip("strategy ordering needs a long run; skipped with -short")
	}
	const n, steps = 8000, 250
	run := func(strategy balance.Strategy) Result {
		s := dynamicSolver(n, 7)
		return RunGravity(s, simCfg(strategy, steps))
	}
	static := run(balance.StrategyStatic)
	enforce := run(balance.StrategyEnforce)
	full := run(balance.StrategyFull)
	t.Logf("per-step totals: static=%.5f enforce=%.5f full=%.5f",
		static.MeanTotalPerStep(), enforce.MeanTotalPerStep(), full.MeanTotalPerStep())
	if full.MeanTotalPerStep() > static.MeanTotalPerStep() {
		t.Fatalf("full strategy (%g) not better than static (%g)",
			full.MeanTotalPerStep(), static.MeanTotalPerStep())
	}
	if enforce.MeanTotalPerStep() > static.MeanTotalPerStep()*1.02 {
		t.Fatalf("enforce-only (%g) not better than static (%g)",
			enforce.MeanTotalPerStep(), static.MeanTotalPerStep())
	}
	// The full machinery should at least match enforce-only (paper: it
	// is substantially better; at scaled-down N the margin is thin).
	if full.MeanTotalPerStep() > enforce.MeanTotalPerStep()*1.05 {
		t.Fatalf("full strategy (%g) clearly worse than enforce-only (%g)",
			full.MeanTotalPerStep(), enforce.MeanTotalPerStep())
	}
}

func TestLBOverheadSmall(t *testing.T) {
	s := dynamicSolver(2000, 9)
	res := RunGravity(s, simCfg(balance.StrategyFull, 80))
	if res.LBPercent() > 25 {
		t.Fatalf("LB overhead %v%% of compute is excessive", res.LBPercent())
	}
}

func TestMomentumConservedByIntegrator(t *testing.T) {
	s := dynamicSolver(600, 11)
	var before, after float64
	for i := range s.Sys.Vel {
		before += s.Sys.Mass[i] * s.Sys.Vel[i].X
	}
	RunGravity(s, simCfg(balance.StrategyFull, 20))
	for i := range s.Sys.Vel {
		after += s.Sys.Mass[i] * s.Sys.Vel[i].X
	}
	var scale float64
	for i := range s.Sys.Vel {
		scale += s.Sys.Mass[i] * math.Abs(s.Sys.Vel[i].X)
	}
	if math.Abs(after-before) > 1e-3*scale {
		t.Fatalf("momentum drift %g vs scale %g", after-before, scale)
	}
}

// TestGravityListCacheBitForBit runs the same trajectory with the
// persistent list cache (default) and with the cache disabled
// (from-scratch dual traversal every solve), under the full balancing
// strategy — so the run includes search rebuilds, Enforce_S and
// fine-grained Collapse/PushDown batches. Both variants must agree bit for
// bit, step for step.
func TestGravityListCacheBitForBit(t *testing.T) {
	run := func(disableCache bool) (*core.Solver, Result) {
		sys := distrib.PlummerTruncated(2500, 1, 1, 0.8, 13)
		for i := range sys.Vel {
			sys.Vel[i] = geom.Vec3{}
		}
		cfg := core.Config{
			P:       2,
			S:       64,
			NumGPUs: 2,
			GPUSpec: vgpu.ScaledSpec(1.0 / 64),
			Kernel:  kernels.Gravity{G: 1, Softening: 0.005},
		}
		cfg.CPU.Cores = 10
		s := core.NewSolver(sys, cfg)
		s.Tree.Cfg.NoListCache = disableCache // octree.Build built no lists yet
		return s, RunGravity(s, simCfg(balance.StrategyFull, 40))
	}
	cached, resCached := run(false)
	scratch, resScratch := run(true)
	for i := range cached.Sys.Pos {
		if cached.Sys.Pos[i] != scratch.Sys.Pos[i] || cached.Sys.Vel[i] != scratch.Sys.Vel[i] {
			t.Fatalf("body %d diverged from from-scratch lists: %v vs %v",
				i, cached.Sys.Pos[i], scratch.Sys.Pos[i])
		}
	}
	for i := range resCached.Records {
		a, b := resCached.Records[i], resScratch.Records[i]
		if a.S != b.S || a.State != b.State || a.Compute != b.Compute {
			t.Fatalf("step %d diverged: %+v vs %+v", i, a, b)
		}
	}
	// The cached run must actually have exercised the cache: the balancer
	// rebuilds during search, but observation steps skip and fine-grained
	// edits repair.
	st := cached.Tree.ListBuildStats()
	if st.Skips == 0 || st.Repairs == 0 {
		t.Fatalf("cache not exercised: %+v", st)
	}
	sc := scratch.Tree.ListBuildStats()
	if sc.Skips != 0 || sc.Repairs != 0 {
		t.Fatalf("disabled cache still skipped/repaired: %+v", sc)
	}
	// ...and with accepted pairs summed directly, re-chosen from the
	// drifting occupancy every step, on both sides.
	cached.Tree.BuildLists()
	scratch.Tree.BuildLists()
	if a, b := cached.Tree.NearField(), scratch.Tree.NearField(); a.DirectPairs == 0 || a.DirectPairs != b.DirectPairs {
		t.Fatalf("direct pairs: cached %d, from scratch %d", a.DirectPairs, b.DirectPairs)
	}
}

// TestStokesListCacheBitForBit is the Stokes analogue: elastic rings
// driving an overdamped flow, cached/repaired lists vs from-scratch.
func TestStokesListCacheBitForBit(t *testing.T) {
	const rings, per = 24, 64
	run := func(disableCache bool) (*stokes.Solver, Result) {
		sys := particle.New(rings * per)
		var bs []stokes.Boundary
		for r := 0; r < rings; r++ {
			c := geom.Vec3{
				X: 0.3 * math.Cos(float64(r)),
				Y: 0.3 * math.Sin(float64(r)),
				Z: -0.6 + 1.2*float64(r)/float64(rings-1),
			}
			bs = append(bs, stokes.Ring(sys, r*per, per, c, 0.5+0.02*float64(r%5), r%3, 40))
		}
		cfg := stokes.Config{
			P:       2,
			S:       32,
			NumGPUs: 2,
			GPUSpec: vgpu.ScaledSpec(1.0 / 64),
			Kernel:  kernels.Stokeslet{Mu: 1, Eps: 1e-3},
		}
		cfg.CPU.Cores = 10
		s := stokes.NewSolver(sys, cfg)
		s.Tree.Cfg.NoListCache = disableCache // octree.Build built no lists yet
		return s, RunStokes(s, bs, simCfg(balance.StrategyFull, 25))
	}
	cached, resCached := run(false)
	scratch, resScratch := run(true)
	for i := range cached.Sys.Pos {
		if cached.Sys.Pos[i] != scratch.Sys.Pos[i] {
			t.Fatalf("marker %d diverged: %v vs %v",
				i, cached.Sys.Pos[i], scratch.Sys.Pos[i])
		}
	}
	for i := range resCached.Records {
		a, b := resCached.Records[i], resScratch.Records[i]
		if a.S != b.S || a.State != b.State || a.Compute != b.Compute {
			t.Fatalf("step %d diverged: %+v vs %+v", i, a, b)
		}
	}
	if st := cached.Tree.ListBuildStats(); st.Skips == 0 {
		t.Fatalf("cache not exercised: %+v", st)
	}
}

func TestSuggestDt(t *testing.T) {
	s := dynamicSolver(500, 21)
	s.Solve()
	dt := SuggestDt(s.Sys, 0.005, 0.1, 1e-6, 1e-2)
	if dt <= 1e-6 || dt > 1e-2 {
		t.Fatalf("suggested dt %v outside clamps", dt)
	}
	// Stronger accelerations (deeper collapse) must shrink the step.
	for i := range s.Sys.Acc {
		s.Sys.Acc[i] = s.Sys.Acc[i].Scale(100)
	}
	dt2 := SuggestDt(s.Sys, 0.005, 0.1, 1e-6, 1e-2)
	if dt2 >= dt {
		t.Fatalf("dt did not shrink with stronger acceleration: %v -> %v", dt, dt2)
	}
	// Zero accelerations hit the max clamp.
	for i := range s.Sys.Acc {
		s.Sys.Acc[i] = geom.Vec3{}
	}
	if got := SuggestDt(s.Sys, 0.005, 0.1, 1e-6, 1e-2); got != 1e-2 {
		t.Fatalf("free system dt %v, want max clamp", got)
	}
}

func TestTraceEmitsValidJSONL(t *testing.T) {
	s := dynamicSolver(600, 33)
	var buf bytes.Buffer
	res := RunGravity(s, Config{
		Dt: 2e-4, Steps: 10,
		Balance: balance.Config{Strategy: balance.StrategyFull},
		Rec:     telemetry.New(telemetry.Options{JSONL: &buf}),
	})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 10 {
		t.Fatalf("%d trace lines, want 10", len(lines))
	}
	for i, ln := range lines {
		var rec map[string]interface{}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		if int(rec["step"].(float64)) != i {
			t.Fatalf("line %d: step %v", i, rec["step"])
		}
		if rec["state"].(string) == "" {
			t.Fatalf("line %d: missing state", i)
		}
		if rec["total"].(float64) != res.Records[i].Total {
			t.Fatalf("line %d: total mismatch", i)
		}
	}
}

// TestStepRecordsSurfacePhaseBreakdown: the run loop must surface the
// host phase durations the solver measures, not just the virtual pair.
func TestStepRecordsSurfacePhaseBreakdown(t *testing.T) {
	s := dynamicSolver(600, 37)
	res := RunGravity(s, simCfg(balance.StrategyFull, 6))
	for i, rec := range res.Records {
		if rec.WallNs <= 0 {
			t.Fatalf("step %d: WallNs = %d", i, rec.WallNs)
		}
		if rec.ListNs < 0 || rec.FarNs <= 0 || rec.NearNs <= 0 || rec.RefillNs <= 0 {
			t.Fatalf("step %d: phase breakdown missing: %+v", i, rec)
		}
		if sum := rec.ListNs + rec.FarNs + rec.NearNs + rec.RefillNs; sum > rec.WallNs*3/2 {
			t.Fatalf("step %d: phases (%d ns) wildly exceed the step wall clock (%d ns)",
				i, sum, rec.WallNs)
		}
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	for _, col := range []string{"list_ns", "far_ns", "near_ns", "refill_ns", "wall_ns"} {
		if !strings.Contains(header, col) {
			t.Fatalf("CSV header missing %q: %s", col, header)
		}
	}
}

// TestRecorderThreadedThroughRun: an explicit recorder sees solver spans,
// balancer events, per-worker busy time, the step bracketing, and every
// record field the solver and the step loop write.
func TestRecorderThreadedThroughRun(t *testing.T) {
	s := dynamicSolver(600, 39)
	rec := telemetry.New(telemetry.Options{Keep: true})
	res := RunGravity(s, Config{
		Dt: 2e-4, Steps: 8,
		Balance: balance.Config{Strategy: balance.StrategyFull},
		Rec:     rec,
	})
	steps := rec.Steps()
	if len(steps) != len(res.Records) {
		t.Fatalf("recorder kept %d steps, run produced %d", len(steps), len(res.Records))
	}
	for i, sr := range steps {
		if sr.Step != i {
			t.Fatalf("record %d has step %d", i, sr.Step)
		}
		if sr.Total != res.Records[i].Total || sr.S != res.Records[i].S {
			t.Fatalf("step %d: trace/record mismatch: %+v vs %+v", i, sr, res.Records[i])
		}
		kinds := map[telemetry.SpanKind]bool{}
		for _, sp := range sr.Spans {
			kinds[sp.Kind] = true
		}
		for _, k := range []telemetry.SpanKind{
			telemetry.SpanSolve, telemetry.SpanPrep, telemetry.SpanUpSweep,
			telemetry.SpanDownSweep, telemetry.SpanNearExec, telemetry.SpanGraph,
			telemetry.SpanVCPUSim, telemetry.SpanObserve, telemetry.SpanIntegrate,
			telemetry.SpanRefill, telemetry.SpanBalance,
		} {
			if !kinds[k] {
				t.Fatalf("step %d missing span kind %v (have %v)", i, k, kinds)
			}
		}
		if !kinds[telemetry.SpanListFull] && !kinds[telemetry.SpanListRepair] && !kinds[telemetry.SpanListSkip] {
			t.Fatalf("step %d has no list-build classification span", i)
		}
		if len(sr.WorkerBusyNs) == 0 {
			t.Fatalf("step %d missing worker busy profile", i)
		}
		if len(sr.Devices) != 2 {
			t.Fatalf("step %d has %d device samples, want 2", i, len(sr.Devices))
		}
		if sr.Counts[5] == 0 { // P2P count
			t.Fatalf("step %d cost-model observation missing: %v", i, sr.Counts)
		}
		if sr.PhaseNs() <= 0 || sr.WallNs <= 0 {
			t.Fatalf("step %d phase/wall missing: %d / %d", i, sr.PhaseNs(), sr.WallNs)
		}
		rr := res.Records[i]
		if sr.State != rr.State || sr.LB != rr.LBTime || sr.Refill != rr.Refill {
			t.Fatalf("step %d: state/lb/refill %q %g %g, record %q %g %g",
				i, sr.State, sr.LB, sr.Refill, rr.State, rr.LBTime, rr.Refill)
		}
		if l := sr.Lists; l.Full+l.Repairs+l.Skips != 1 {
			t.Fatalf("step %d list activity %+v, want one build classification", i, l)
		}
		if sr.M2LClasses <= 0 || sr.M2LPairs < int64(sr.M2LClasses) {
			t.Fatalf("step %d M2L table %d classes / %d pairs", i, sr.M2LClasses, sr.M2LPairs)
		}
		if sr.DirectPairs <= 0 || sr.DirectInteractions < sr.DirectPairs || sr.DirectPairs > sr.Counts[2] {
			t.Fatalf("step %d direct %d pairs / %d interactions of %d M2L",
				i, sr.DirectPairs, sr.DirectInteractions, sr.Counts[2])
		}
		if sr.TaskNodes <= 0 || sr.TaskEdges <= 0 || sr.TaskMakespanNs <= 0 {
			t.Fatalf("step %d task graph %d nodes / %d edges / %d ns",
				i, sr.TaskNodes, sr.TaskEdges, sr.TaskMakespanNs)
		}
		var opTime float64
		for op := range sr.OpTime {
			opTime += sr.OpTime[op]
		}
		if opTime <= 0 || sr.Coef[2] <= 0 || sr.Coef[5] <= 0 {
			t.Fatalf("step %d observation op_time %v coef %v", i, sr.OpTime, sr.Coef)
		}
		if sr.CPUEff <= 0 || sr.CPUEff > 1 || sr.GPUEff <= 0 || sr.GPUEff > 1 {
			t.Fatalf("step %d efficiencies cpu %g gpu %g", i, sr.CPUEff, sr.GPUEff)
		}
		if len(sr.ClassBusyNs) != telemetry.NumClasses {
			t.Fatalf("step %d class busy %v, want %d classes", i, sr.ClassBusyNs, telemetry.NumClasses)
		}
		if !sr.Overlapped || sr.SerialWallNs <= 0 {
			t.Fatalf("step %d overlap %v / serial wall %d", i, sr.Overlapped, sr.SerialWallNs)
		}
	}
	// The first step of a StrategyFull run is a Search step: the balancer
	// must have logged machine-readable activity somewhere in the run.
	var events int
	for _, sr := range steps {
		events += len(sr.Events)
	}
	if events == 0 {
		t.Fatal("no balancer events recorded across a full-strategy run")
	}
}

// TestObserveSeesEveryStepInInputOrder: the Observe callback runs once
// per step, in step order, and its phi is in input order — the last call's
// copy equals what the system reports after the run (Refill and the
// balancer only permute the storage arrays).
func TestObserveSeesEveryStepInInputOrder(t *testing.T) {
	s := dynamicSolver(1000, 5)
	cfg := simCfg(balance.StrategyFull, 12)
	var steps []int
	var last []float64
	cfg.Observe = func(step int, phi []float64, acc []geom.Vec3) {
		steps = append(steps, step)
		last = append(last[:0], phi...)
	}
	if res := RunGravity(s, cfg); res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(steps) != 12 {
		t.Fatalf("%d callbacks, want 12", len(steps))
	}
	for i, st := range steps {
		if st != i {
			t.Fatalf("callback %d saw step %d", i, st)
		}
	}
	want := s.Sys.PhiInInputOrder()
	for i := range want {
		if last[i] != want[i] {
			t.Fatalf("phi[%d]: last observed %v, system reports %v", i, last[i], want[i])
		}
	}
}
