package balance

import (
	"testing"

	"afmm/internal/distrib"
	"afmm/internal/octree"
	"afmm/internal/particle"
	"afmm/internal/telemetry"
)

// scriptedTarget is a balance.Target over a real octree whose Predict
// answers come from a script, so a test can steer the balancer through an
// exact state trajectory and assert the emitted event sequence.
type scriptedTarget struct {
	tr       *octree.Tree
	sys      *particle.System
	predicts [][2]float64 // popped per Predict call; last value sticks
}

func (t *scriptedTarget) S() int           { return t.tr.Cfg.S }
func (t *scriptedTarget) Rebuild(newS int) { t.tr.Rebuild(newS) }
func (t *scriptedTarget) EnforceS() (int, int) {
	return t.tr.EnforceS()
}
func (t *scriptedTarget) Predict() (float64, float64) {
	p := t.predicts[0]
	if len(t.predicts) > 1 {
		t.predicts = t.predicts[1:]
	}
	return p[0], p[1]
}
func (t *scriptedTarget) Octree() *octree.Tree     { return t.tr }
func (t *scriptedTarget) System() *particle.System { return t.sys }
func (t *scriptedTarget) Cores() int               { return 10 }

func eventKinds(evs []telemetry.Event) []telemetry.EventKind {
	out := make([]telemetry.EventKind, len(evs))
	for i, e := range evs {
		out[i] = e.Kind
	}
	return out
}

func kindsEqual(got []telemetry.EventKind, want ...telemetry.EventKind) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestBalancerEventTrajectory scripts one full pass through the state
// machine — Search binary-search probe, switch to Incremental, an
// incremental nudge, the dominant-unit flip into Observation (with
// FineGrainedOptimize), and an Observation regression that triggers
// Enforce_S, prediction checks, a fine-grained attempt, and the fallback
// to Incremental — and asserts the typed event sequence the recorder
// sees at every step, not just the final S.
func TestBalancerEventTrajectory(t *testing.T) {
	sys := distrib.Plummer(2000, 1, 1, 7)
	tgt := &scriptedTarget{
		tr:  octree.Build(sys, octree.Config{S: 32}),
		sys: sys,
		predicts: [][2]float64{
			// step 4 (dom flip -> FineGrainedOptimize):
			{0.5, 1.0},  // FGO baseline
			{0.5, 0.9},  // batch 1: improves -> accepted
			{0.5, 0.95}, // batch 2: regresses -> reverted, loop ends
			// step 5 (observation regression):
			{3.0, 0}, // post-enforce prediction: above threshold
			{2.9, 0}, // FGO baseline
			{2.5, 0}, // batch 1: improves -> accepted
			{2.6, 0}, // batch 2: regresses -> reverted
			{2.5, 0}, // post-FGO prediction: still above threshold
		},
	}
	rec := telemetry.New(telemetry.Options{Keep: true})
	b := New(Config{
		Strategy: StrategyFull,
		MinS:     4, MaxS: 256,
		FineGrainBatch:    2,
		MaxFineGrainIters: 4,
		Rec:               rec,
	}, sys.Len())

	step := func(i int, cpu, gpu float64) Report {
		rec.StartStep(i)
		rep := b.AfterStep(tgt, StepTimes{CPU: cpu, GPU: gpu})
		rec.EndStep()
		return rep
	}

	// Step 0: Search, CPU-dominated and far from balance -> binary-search
	// probe. lo becomes 33, probe = geomMid(33, 256) = 92.
	rep := step(0, 5, 1)
	if b.State != Search || !rep.Rebuilt || rep.NewS != 92 {
		t.Fatalf("step 0: want Search probe to S=92, got state=%v rebuilt=%v S=%d",
			b.State, rep.Rebuilt, rep.NewS)
	}

	// Step 1: times close -> search settles on the best S seen (the probe
	// itself, so no extra rebuild) and hands over to Incremental.
	rep = step(1, 1.2, 1.1)
	if b.State != Incremental || rep.Rebuilt {
		t.Fatalf("step 1: want switch to Incremental without rebuild, got state=%v rebuilt=%v",
			b.State, rep.Rebuilt)
	}

	// Step 2: still CPU-dominated -> one incremental nudge up
	// (92 + max(1, 92/8) = 103).
	rep = step(2, 1.2, 1.0)
	if b.State != Incremental || !rep.Rebuilt || rep.NewS != 103 {
		t.Fatalf("step 2: want nudge to S=103, got state=%v rebuilt=%v S=%d",
			b.State, rep.Rebuilt, rep.NewS)
	}

	// Step 3: dominant unit flips (GPU now slower) outside the switch
	// window -> FineGrainedOptimize runs, then Observation.
	rep = step(3, 0.5, 1.0)
	if b.State != Observation || !rep.FineGrain {
		t.Fatalf("step 3: want FGO + Observation, got state=%v finegrain=%v",
			b.State, rep.FineGrain)
	}

	// Step 4: >5%% regression over the best (1.0) -> Enforce_S, prediction
	// above threshold, FGO attempt, still above threshold -> fall back to
	// Incremental.
	rep = step(4, 2.0, 0)
	if b.State != Incremental || !rep.EnforcedS || !rep.FineGrain {
		t.Fatalf("step 4: want enforce + FGO + fallback to Incremental, got state=%v %+v",
			b.State, rep)
	}

	steps := rec.Steps()
	if len(steps) != 5 {
		t.Fatalf("kept %d step records, want 5", len(steps))
	}
	check := func(step int, want ...telemetry.EventKind) {
		t.Helper()
		got := eventKinds(steps[step].Events)
		if !kindsEqual(got, want...) {
			t.Fatalf("step %d events = %v, want %v", step, got, want)
		}
	}
	check(0, telemetry.EventSearchProbe, telemetry.EventRebuild, telemetry.EventSChange)
	check(1, telemetry.EventState) // search -> incremental
	check(2, telemetry.EventNudge, telemetry.EventRebuild, telemetry.EventSChange)
	check(3, telemetry.EventDomFlip, telemetry.EventFineGrain, telemetry.EventState)
	check(4, telemetry.EventRegression, telemetry.EventEnforceS,
		telemetry.EventPrediction, telemetry.EventFineGrain,
		telemetry.EventPrediction, telemetry.EventState)

	// Spot-check payloads: the probe S, the nudge endpoints, the state
	// transitions, and the regression pair.
	if e := steps[0].Events[0]; e.A != 92 {
		t.Fatalf("search probe S = %d, want 92", e.A)
	}
	if e := steps[2].Events[0]; e.A != 92 || e.B != 103 {
		t.Fatalf("nudge = %d -> %d, want 92 -> 103", e.A, e.B)
	}
	if e := steps[1].Events[0]; State(e.A) != Search || State(e.B) != Incremental {
		t.Fatalf("step 1 transition = %v -> %v", State(e.A), State(e.B))
	}
	if e := steps[3].Events[2]; State(e.A) != Incremental || State(e.B) != Observation {
		t.Fatalf("step 3 transition = %v -> %v", State(e.A), State(e.B))
	}
	if e := steps[4].Events[0]; e.FA != 2.0 || e.FB != 1.0 {
		t.Fatalf("regression observed/best = %g/%g, want 2/1", e.FA, e.FB)
	}
	if e := steps[4].Events[5]; State(e.A) != Observation || State(e.B) != Incremental {
		t.Fatalf("step 4 transition = %v -> %v", State(e.A), State(e.B))
	}

	// The FGO and enforcement work is also visible as tree-edit counters
	// and spans.
	if steps[3].Pushdowns == 0 {
		t.Fatalf("step 3 FGO accepted a pushdown batch but Pushdowns=0")
	}
	var sawFG, sawEnf, sawPred bool
	for _, sp := range steps[4].Spans {
		switch sp.Kind {
		case telemetry.SpanFineGrain:
			sawFG = true
		case telemetry.SpanEnforceS:
			sawEnf = true
		case telemetry.SpanPredict:
			sawPred = true
		}
	}
	if !sawFG || !sawEnf || !sawPred {
		t.Fatalf("step 4 spans missing finegrain/enforce/predict: %v %v %v",
			sawFG, sawEnf, sawPred)
	}
}

// TestBalancerEventsSilentWhenStable: a stable observation run emits no
// events at all.
func TestBalancerEventsSilentWhenStable(t *testing.T) {
	sys := distrib.Plummer(500, 1, 1, 9)
	tgt := &scriptedTarget{
		tr:       octree.Build(sys, octree.Config{S: 32}),
		sys:      sys,
		predicts: [][2]float64{{1, 1}},
	}
	rec := telemetry.New(telemetry.Options{Keep: true})
	b := New(Config{Strategy: StrategyFull, Rec: rec}, sys.Len())
	b.State = Observation
	for i := 0; i < 5; i++ {
		rec.StartStep(i)
		b.AfterStep(tgt, StepTimes{CPU: 1, GPU: 1})
		rec.EndStep()
	}
	for _, sr := range rec.Steps() {
		if len(sr.Events) != 0 {
			t.Fatalf("stable observation emitted events: %v", sr.Events)
		}
	}
}

// TestPredictionRecorded: the step whose record carries a prediction
// event also carries the prediction itself — the CPU and GPU times the
// balancer expects of the next step, the last one made when fine-grained
// optimization predicts twice.
func TestPredictionRecorded(t *testing.T) {
	for _, fine := range []bool{false, true} {
		sys := distrib.Plummer(2000, 1, 1, 7)
		tgt := &scriptedTarget{
			tr:  octree.Build(sys, octree.Config{S: 32}),
			sys: sys,
			// post-enforce prediction, then (with FGO) its baseline, two
			// batches and the post-FGO prediction
			predicts: [][2]float64{{3.0, 0.5}, {2.9, 0.5}, {2.5, 0.5}, {2.6, 0.5}, {2.5, 0.5}},
		}
		rec := telemetry.New(telemetry.Options{Keep: true})
		b := New(Config{
			Strategy: StrategyFull, MinS: 4, MaxS: 256,
			FineGrainBatch: 2, MaxFineGrainIters: 4, DisableFineGrain: !fine,
			Rec: rec,
		}, sys.Len())
		b.State = Observation
		for i, cpu := range []float64{1.0, 2.0} { // best, then a regression
			rec.StartStep(i)
			b.AfterStep(tgt, StepTimes{CPU: cpu, GPU: 0.5})
			rec.EndStep()
		}
		steps := rec.Steps()
		if steps[0].PredCPU != 0 {
			t.Fatalf("fine=%v: step 0 made no prediction but records pred_cpu %g", fine, steps[0].PredCPU)
		}
		var last telemetry.Event
		for _, e := range steps[1].Events {
			if e.Kind == telemetry.EventPrediction {
				last = e
			}
		}
		if last.Kind != telemetry.EventPrediction {
			t.Fatalf("fine=%v: step 1 emitted no prediction event: %v", fine, eventKinds(steps[1].Events))
		}
		if got := max(steps[1].PredCPU, steps[1].PredGPU); got == 0 || got != last.FA || steps[1].PredGPU != 0.5 {
			t.Fatalf("fine=%v: step 1 records pred_cpu %g, pred_gpu %g; its last prediction event says %g",
				fine, steps[1].PredCPU, steps[1].PredGPU, last.FA)
		}
	}
}
