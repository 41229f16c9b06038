package fault

import (
	"reflect"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	spec := "gpu1:failstop@step12,gpu0:straggle2.5@step20,gpu2:transient3@step4,gpu0:hang@step7#2,gpu1:corrupt@step9"
	sch, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Device: 1, Kind: FailStop, Step: 12, Factor: 1, Count: 1},
		{Device: 0, Kind: Straggle, Step: 20, Factor: 2.5, Count: 1},
		{Device: 2, Kind: Transient, Step: 4, Factor: 1, Count: 3},
		{Device: 0, Kind: Hang, Step: 7, Chunk: 2, Factor: 1, Count: 1},
		{Device: 1, Kind: Corrupt, Step: 9, Factor: 1, Count: 1},
	}
	if !reflect.DeepEqual(sch.Events, want) {
		t.Fatalf("parsed %+v\nwant %+v", sch.Events, want)
	}
	// String() must re-parse to the same schedule.
	back, err := Parse(sch.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", sch.String(), err)
	}
	if !reflect.DeepEqual(back.Events, sch.Events) {
		t.Fatalf("round trip changed schedule: %+v vs %+v", back.Events, sch.Events)
	}
}

func TestParseEmpty(t *testing.T) {
	sch, err := Parse("  ")
	if err != nil {
		t.Fatal(err)
	}
	if len(sch.Events) != 0 {
		t.Fatalf("want empty schedule, got %+v", sch.Events)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"gpu1failstop@step2",     // missing colon
		"gpux:failstop@step2",    // bad device
		"gpu1:explode@step2",     // unknown kind
		"gpu1:failstop@2",        // missing "step"... actually "2" trims to "2" -> valid? see below
		"gpu1:straggle@step2",    // straggle without factor
		"gpu1:transient0@step3",  // transient count < 1
		"gpu1:failstop@stepX",    // bad step
		"gpu1:straggle2@step3#1", // chunk on straggle
	}
	for _, spec := range bad {
		if spec == "gpu1:failstop@2" {
			// "@2" without the "step" prefix is accepted as a bare
			// number — verify it parses rather than errors.
			sch, err := Parse(spec)
			if err != nil || sch.Events[0].Step != 2 {
				t.Fatalf("bare step number should parse: %v %+v", err, sch)
			}
			continue
		}
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) = nil error, want failure", spec)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(42, 4, 100, 8)
	b := Random(42, 4, 100, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	c := Random(43, 4, 100, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical schedules")
	}
	if len(a.Events) != 8 {
		t.Fatalf("want 8 events, got %d", len(a.Events))
	}
	for _, ev := range a.Events {
		if ev.Device < 0 || ev.Device >= 4 {
			t.Errorf("device out of range: %+v", ev)
		}
		if ev.Step < 25 || ev.Step >= 100 {
			t.Errorf("step outside [steps/4, steps): %+v", ev)
		}
	}
	// Random schedules must survive the spec grammar round trip too.
	if _, err := Parse(a.String()); err != nil {
		t.Fatalf("random schedule %q does not re-parse: %v", a.String(), err)
	}
}

func TestInjectorFailStop(t *testing.T) {
	sch, _ := Parse("gpu1:failstop@step3#2")
	in := NewInjector(sch)

	in.BeginStep(2)
	if out := in.Chunk(1, 5); out.Kind != None {
		t.Fatalf("fired before armed step: %+v", out)
	}
	in.BeginStep(3)
	if out := in.Chunk(1, 0); out.Kind != None {
		t.Fatalf("fired before armed chunk: %+v", out)
	}
	if out := in.Chunk(0, 2); out.Kind != None {
		t.Fatalf("fired on wrong device: %+v", out)
	}
	if out := in.Chunk(1, 2); out.Kind != FailStop {
		t.Fatalf("want FailStop at (dev1, chunk2), got %+v", out)
	}
	// One-shot: does not fire again.
	if out := in.Chunk(1, 3); out.Kind != None {
		t.Fatalf("fail-stop fired twice: %+v", out)
	}
}

// TestInjectorFailStopLateChunk: a fault pinned past the device's last
// chunk of its step fires at chunk 0 of the device's next walk, one step
// late (execution "reached or passed" the arm point).
func TestInjectorFailStopLateChunk(t *testing.T) {
	sch, _ := Parse("gpu0:failstop@step1#5")
	in := NewInjector(sch)
	in.BeginStep(1)
	for chunk := 0; chunk <= 2; chunk++ {
		if out := in.Chunk(0, chunk); out.Kind != None {
			t.Fatalf("fired at chunk %d of the armed step: %+v", chunk, out)
		}
	}
	in.BeginStep(2)
	if out := in.Chunk(0, 0); out.Kind != FailStop {
		t.Fatalf("want FailStop at chunk 0 of the next step, got %+v", out)
	}
}

func TestInjectorTransientBudget(t *testing.T) {
	sch, _ := Parse("gpu0:transient2@step5")
	in := NewInjector(sch)
	in.BeginStep(5)
	// Each chunk fails Count times, then succeeds.
	for chunk := 0; chunk < 3; chunk++ {
		for attempt := 0; attempt < 2; attempt++ {
			if out := in.Chunk(0, chunk); out.Kind != Transient {
				t.Fatalf("chunk %d attempt %d: want Transient, got %+v", chunk, attempt, out)
			}
		}
		if out := in.Chunk(0, chunk); out.Kind != None {
			t.Fatalf("chunk %d retry after budget: want None, got %+v", chunk, out)
		}
	}
	// Next step: budgets cleared, event no longer armed.
	in.BeginStep(6)
	if out := in.Chunk(0, 0); out.Kind != None {
		t.Fatalf("transient leaked past its step: %+v", out)
	}
}

func TestInjectorStragglePersists(t *testing.T) {
	sch, _ := Parse("gpu2:straggle2.5@step10")
	in := NewInjector(sch)
	in.BeginStep(9)
	if f := in.StraggleFactor(2); f != 1 {
		t.Fatalf("straggle active before armed step: %v", f)
	}
	in.BeginStep(10)
	if f := in.StraggleFactor(2); f != 2.5 {
		t.Fatalf("want factor 2.5, got %v", f)
	}
	if f := in.StraggleFactor(0); f != 1 {
		t.Fatalf("straggle leaked to wrong device: %v", f)
	}
	// Persists on later steps until replaced.
	in.BeginStep(20)
	if f := in.StraggleFactor(2); f != 2.5 {
		t.Fatalf("straggle did not persist: %v", f)
	}
}

func TestInjectorStraggleRestore(t *testing.T) {
	sch, _ := Parse("gpu0:straggle3@step2,gpu0:straggle1@step6")
	in := NewInjector(sch)
	in.BeginStep(3)
	if f := in.StraggleFactor(0); f != 3 {
		t.Fatalf("want 3, got %v", f)
	}
	in.BeginStep(6)
	if f := in.StraggleFactor(0); f != 1 {
		t.Fatalf("straggle1 should restore full speed, got %v", f)
	}
}

func TestNilInjector(t *testing.T) {
	var in *Injector
	in.BeginStep(3)
	if out := in.Chunk(0, 0); out.Kind != None {
		t.Fatalf("nil injector fired: %+v", out)
	}
	if f := in.StraggleFactor(0); f != 1 {
		t.Fatalf("nil injector straggle: %v", f)
	}
}

func TestProbeIsSideEffectFree(t *testing.T) {
	sch, _ := Parse("gpu0:failstop@step1,gpu1:transient2@step0")
	in := NewInjector(sch)

	// Before the armed step the one-shot is invisible to the probe.
	in.BeginStep(0)
	if k := in.Probe(0); k != None {
		t.Fatalf("probe saw unarmed failstop: %v", k)
	}
	// An active transient fails the probe but never touches the budget:
	// repeated probes keep failing, and a later chunk attempt still
	// consumes the full failure count.
	for i := 0; i < 3; i++ {
		if k := in.Probe(1); k != Transient {
			t.Fatalf("probe %d: want transient, got %v", i, k)
		}
	}
	fails := 0
	for in.Chunk(1, 0).Kind == Transient {
		fails++
	}
	if fails != 2 {
		t.Fatalf("probes consumed transient budget: %d fails, want 2", fails)
	}

	// From the armed step on, the probe sees the pending failstop without
	// firing it — the chunk attempt still delivers it.
	in.BeginStep(1)
	if k := in.Probe(0); k != FailStop {
		t.Fatalf("probe missed pending failstop: %v", k)
	}
	if out := in.Chunk(0, 0); out.Kind != FailStop {
		t.Fatalf("probe consumed the failstop: %+v", out)
	}
	// Once fired, the probe comes back clean.
	in.BeginStep(2)
	if k := in.Probe(0); k != None {
		t.Fatalf("probe after delivery: %v", k)
	}
	if k := (*Injector)(nil).Probe(0); k != None {
		t.Fatalf("nil injector probe: %v", k)
	}
}

func TestParseNodeEvents(t *testing.T) {
	events, err := ParseNodeEvents(" node2:failstop@step12, node0:failstop@step3 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeEvent{{Node: 0, Step: 3}, {Node: 2, Step: 12}}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("got %v, want %v", events, want)
	}
	if s := events[1].String(); s != "node2:failstop@step12" {
		t.Fatalf("String() = %q", s)
	}
	if ev, err := ParseNodeEvents(""); err != nil || ev != nil {
		t.Fatalf("empty spec: %v, %v", ev, err)
	}
	for _, bad := range []string{"gpu1:failstop@step2", "node1:hang@step2", "node1:failstop@2", "nodex:failstop@step2"} {
		if _, err := ParseNodeEvents(bad); err == nil {
			t.Fatalf("spec %q should be rejected", bad)
		}
	}
}
