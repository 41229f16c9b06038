package balance

import (
	"testing"

	"afmm/internal/distrib"
	"afmm/internal/octree"
	"afmm/internal/telemetry"
)

// capTarget is a scriptedTarget that also reports scripted near-field
// capacity (a CapacitySensor).
type capTarget struct {
	scriptedTarget
	epoch int64
	cap_  float64
}

func (t *capTarget) NearFieldCapacity() (int64, float64) { return t.epoch, t.cap_ }

func newCapTarget(t *testing.T, s int, predicts [][2]float64) *capTarget {
	t.Helper()
	sys := distrib.Plummer(2000, 1, 1, 7)
	return &capTarget{
		scriptedTarget: scriptedTarget{
			tr:       octree.Build(sys, octree.Config{S: s}),
			sys:      sys,
			predicts: predicts,
		},
		cap_: 100,
	}
}

// TestCapacityLossReentersSearch: in Observation, a capacity drop beyond
// regressionFrac re-enters Search bounded below the current S (the near
// field got slower, so the optimum moved toward smaller leaves), and the
// event log shows capacity -> state -> probe in order.
func TestCapacityLossReentersSearch(t *testing.T) {
	tgt := newCapTarget(t, 32, [][2]float64{{1, 1}})
	rec := telemetry.New(telemetry.Options{Keep: true})
	b := New(Config{Strategy: StrategyFull, MinS: 4, MaxS: 256, Rec: rec}, tgt.sys.Len())
	b.Import(Snapshot{State: Observation, Best: 1.0, HaveBest: true})

	// Step 0: baseline capacity is recorded; stable times, no events.
	rec.StartStep(0)
	b.AfterStep(tgt, StepTimes{CPU: 1, GPU: 1})
	rec.EndStep()

	// Step 1: a device died — capacity halves, the GPU side now dominates.
	tgt.epoch, tgt.cap_ = 1, 50
	rec.StartStep(1)
	rep := b.AfterStep(tgt, StepTimes{CPU: 1, GPU: 2})
	rec.EndStep()

	if b.State != Search {
		t.Fatalf("state after capacity loss = %v, want Search", b.State)
	}
	if b.loS != 4 || b.hiS >= 32 {
		t.Fatalf("search bounds [%d,%d], want [4,<32] (directional, below old S)", b.loS, b.hiS)
	}
	if !rep.Rebuilt {
		t.Fatalf("re-entered search did not probe: %+v", rep)
	}
	steps := rec.Steps()
	if len(steps[0].Events) != 0 {
		t.Fatalf("baseline step emitted events: %v", steps[0].Events)
	}
	got := eventKinds(steps[1].Events)
	if !kindsEqual(got, telemetry.EventCapacity, telemetry.EventState,
		telemetry.EventSearchProbe, telemetry.EventRebuild, telemetry.EventSChange) {
		t.Fatalf("step 1 events = %v", got)
	}
	if e := steps[1].Events[0]; e.A != 1 || e.FA != 50 || e.FB != 100 {
		t.Fatalf("capacity event payload = %+v, want epoch 1, 100 -> 50", e)
	}
	if e := steps[1].Events[1]; State(e.A) != Observation || State(e.B) != Search {
		t.Fatalf("transition = %v -> %v, want observation -> search", State(e.A), State(e.B))
	}
}

// TestCapacityGainSearchesUpward: a restored/added device bounds the
// re-search above the current S.
func TestCapacityGainSearchesUpward(t *testing.T) {
	tgt := newCapTarget(t, 32, [][2]float64{{1, 1}})
	b := New(Config{Strategy: StrategyFull, MinS: 4, MaxS: 256}, tgt.sys.Len())
	b.Import(Snapshot{State: Observation, Best: 1.0, HaveBest: true})
	b.AfterStep(tgt, StepTimes{CPU: 1, GPU: 1})
	tgt.epoch, tgt.cap_ = 1, 200
	b.AfterStep(tgt, StepTimes{CPU: 2, GPU: 1})
	if b.State != Search {
		t.Fatalf("state = %v, want Search", b.State)
	}
	if b.loS < 32 || b.hiS != 256 {
		t.Fatalf("search bounds [%d,%d], want [>=32,256]", b.loS, b.hiS)
	}
}

// TestCapacitySmallShiftIgnored: shifts within regressionFrac leave the
// state machine alone (the event is still logged).
func TestCapacitySmallShiftIgnored(t *testing.T) {
	tgt := newCapTarget(t, 32, [][2]float64{{1, 1}})
	rec := telemetry.New(telemetry.Options{Keep: true})
	b := New(Config{Strategy: StrategyFull, MinS: 4, MaxS: 256, Rec: rec}, tgt.sys.Len())
	b.Import(Snapshot{State: Observation, Best: 1.0, HaveBest: true})
	b.AfterStep(tgt, StepTimes{CPU: 1, GPU: 1})
	tgt.epoch, tgt.cap_ = 1, 97 // 3% < regressionFrac 5%
	rec.StartStep(1)
	b.AfterStep(tgt, StepTimes{CPU: 1, GPU: 1})
	rec.EndStep()
	if b.State != Observation {
		t.Fatalf("state = %v, want Observation (shift within tolerance)", b.State)
	}
	got := eventKinds(rec.Steps()[0].Events)
	if !kindsEqual(got, telemetry.EventCapacity) {
		t.Fatalf("events = %v, want just the capacity record", got)
	}
}

// TestCapacityStrategies: the static strategy only records the event; the
// enforce strategy re-baselines its regression detector.
func TestCapacityStrategies(t *testing.T) {
	tgt := newCapTarget(t, 32, [][2]float64{{1, 1}})
	b := New(Config{Strategy: StrategyStatic, MinS: 4, MaxS: 256}, tgt.sys.Len())
	b.Import(Snapshot{State: Frozen})
	b.AfterStep(tgt, StepTimes{CPU: 1, GPU: 1})
	tgt.epoch, tgt.cap_ = 1, 50
	b.AfterStep(tgt, StepTimes{CPU: 1, GPU: 2})
	if b.State != Frozen {
		t.Fatalf("static strategy moved to %v on capacity loss", b.State)
	}

	tgt2 := newCapTarget(t, 32, [][2]float64{{1, 1}})
	b2 := New(Config{Strategy: StrategyEnforce, MinS: 4, MaxS: 256}, tgt2.sys.Len())
	b2.Import(Snapshot{State: Observation, Best: 0.1, HaveBest: true})
	b2.AfterStep(tgt2, StepTimes{CPU: 0.1, GPU: 0.1})
	tgt2.epoch, tgt2.cap_ = 1, 50
	// Compute doubled vs best, but the capacity note re-baselined first,
	// so this is a new baseline, not a regression -> no Enforce_S.
	rep := b2.AfterStep(tgt2, StepTimes{CPU: 0.1, GPU: 0.2})
	if b2.State != Observation || rep.EnforcedS {
		t.Fatalf("enforce strategy: state=%v enforced=%v, want re-baselined observation",
			b2.State, rep.EnforcedS)
	}
}

// TestSnapshotRoundTrip: Export/Import is lossless for the FSM state.
func TestSnapshotRoundTrip(t *testing.T) {
	b := New(Config{Strategy: StrategyFull, MinS: 4, MaxS: 256}, 1000)
	b.State = Incremental
	b.best, b.haveBest = 0.42, true
	b.loS, b.hiS, b.bestS, b.bestSComp = 8, 128, 48, 0.5
	b.dir, b.prevDom = -1, 1
	b.capSeen, b.capEpoch, b.capVal = true, 3, 123.4
	sn := b.Export()
	b2 := New(Config{Strategy: StrategyFull, MinS: 4, MaxS: 256}, 1000)
	b2.Import(sn)
	if b2.Export() != sn {
		t.Fatalf("round trip mismatch: %+v vs %+v", b2.Export(), sn)
	}
}
