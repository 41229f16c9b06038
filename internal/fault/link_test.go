package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseLinkEventsBasic(t *testing.T) {
	sch, err := ParseLinkEvents("link0-2:drop0.05@step3, link1-0:delay1.5ms@step0,link0-1:dup@step2,link2-1:reorder0.3@step1,link1-2:corrupt0.01@step4")
	if err != nil {
		t.Fatal(err)
	}
	if len(sch.Events) != 5 {
		t.Fatalf("got %d events, want 5", len(sch.Events))
	}
	// Sorted by step.
	for i := 1; i < len(sch.Events); i++ {
		if sch.Events[i-1].Step > sch.Events[i].Step {
			t.Fatalf("events not sorted by step: %v", sch.Events)
		}
	}
	byKind := map[LinkKind]LinkEvent{}
	for _, e := range sch.Events {
		byKind[e.Kind] = e
	}
	if e := byKind[LinkDrop]; e.From != 0 || e.To != 2 || e.Prob != 0.05 || e.Step != 3 {
		t.Errorf("drop event = %+v", e)
	}
	if e := byKind[LinkDelay]; e.From != 1 || e.To != 0 || math.Abs(e.Delay-1.5e-3) > 1e-12 {
		t.Errorf("delay event = %+v", e)
	}
	if e := byKind[LinkDup]; e.Prob != 1 {
		t.Errorf("bare dup should default to probability 1, got %+v", e)
	}
	if e := byKind[LinkReorder]; e.Prob != 0.3 {
		t.Errorf("reorder event = %+v", e)
	}
	if e := byKind[LinkCorrupt]; e.Prob != 0.01 {
		t.Errorf("corrupt event = %+v", e)
	}
}

func TestParseLinkEventsDelayUnits(t *testing.T) {
	sch, err := ParseLinkEvents("link0-1:delay250us@step0,link1-0:delay0.002s@step0")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sch.Events[0].Delay-250e-6) > 1e-12 {
		t.Errorf("us delay = %g", sch.Events[0].Delay)
	}
	if math.Abs(sch.Events[1].Delay-2e-3) > 1e-12 {
		t.Errorf("s delay = %g", sch.Events[1].Delay)
	}
}

func TestParseLinkEventsErrors(t *testing.T) {
	for _, spec := range []string{
		"link0:drop0.1@step0",      // missing peer
		"link0-0:drop0.1@step0",    // loopback
		"linkx-1:drop0.1@step0",    // bad node
		"gpu0-1:drop0.1@step0",     // wrong prefix
		"link0-1:drop@step0",       // drop needs probability
		"link0-1:drop1.5@step0",    // probability out of range
		"link0-1:dup-0.2@step0",    // negative probability
		"link0-1:fizzle@step0",     // unknown kind
		"link0-1:drop0.1",          // missing @step
		"link0-1:drop0.1@step-2",   // negative step
		"link0-1:delayms@step0",    // empty delay
		"link0-1:corrupt0.1 step0", // malformed
	} {
		if _, err := ParseLinkEvents(spec); err == nil {
			t.Errorf("spec %q: want error, got none", spec)
		}
	}
}

func TestLinkScheduleStringRoundTrip(t *testing.T) {
	spec := "link1-0:delay1.5ms@step0,link2-1:reorder@step1,link0-1:dup0.3@step2,link0-2:drop0.05@step3,link1-2:corrupt@step4"
	sch, err := ParseLinkEvents(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseLinkEvents(sch.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", sch.String(), err)
	}
	if !reflect.DeepEqual(sch, again) {
		t.Errorf("round trip changed the schedule:\n  first:  %+v\n  second: %+v", sch, again)
	}
	if sch.String() != spec {
		t.Errorf("String() = %q, want %q", sch.String(), spec)
	}
}

func TestLinkStateLatestEventWins(t *testing.T) {
	sch, err := ParseLinkEvents("link0-1:drop0.5@step0,link0-1:drop0@step3,link0-1:delay1ms@step1")
	if err != nil {
		t.Fatal(err)
	}
	if st := sch.State(0, 1, 0); st.Drop != 0.5 || st.Delay != 0 {
		t.Errorf("step 0 state = %+v", st)
	}
	if st := sch.State(0, 1, 2); st.Drop != 0.5 || st.Delay != 1e-3 {
		t.Errorf("step 2 state = %+v", st)
	}
	if st := sch.State(0, 1, 3); st.Drop != 0 || st.Delay != 1e-3 {
		t.Errorf("step 3 state (drop cleared) = %+v", st)
	}
	if st := sch.State(1, 0, 5); st != (LinkState{}) {
		t.Errorf("reverse link should be clean, got %+v", st)
	}
}

func TestParseClusterEventsOverlapping(t *testing.T) {
	nodes, links, err := ParseClusterEvents("node2:failstop@step4,link0-1:drop0.2@step0,node1:failstop@step6,link1-0:corrupt0.1@step4")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].Node != 2 || nodes[0].Step != 4 || nodes[1].Node != 1 {
		t.Errorf("node events = %+v", nodes)
	}
	if len(links.Events) != 2 {
		t.Errorf("link events = %+v", links.Events)
	}
	// A node loss and a link fault overlapping at the same step coexist.
	if st := links.State(1, 0, 4); st.Corrupt != 0.1 {
		t.Errorf("link1-0 state at step 4 = %+v", st)
	}
	if _, _, err := ParseClusterEvents("gpu0:failstop@step1"); err == nil {
		t.Error("device spec in cluster grammar: want error")
	}
	if _, _, err := ParseClusterEvents(""); err != nil {
		t.Errorf("empty spec: %v", err)
	}
}

func TestMaxDropFrom(t *testing.T) {
	sch, _ := ParseLinkEvents("link0-1:drop0.2@step0,link0-2:drop0.6@step2,link1-0:drop0.9@step0")
	if got := sch.MaxDropFrom(0, 0); got != 0.2 {
		t.Errorf("step 0: %g", got)
	}
	if got := sch.MaxDropFrom(0, 2); got != 0.6 {
		t.Errorf("step 2: %g", got)
	}
	if got := sch.MaxDropFrom(2, 5); got != 0 {
		t.Errorf("node 2 sends nothing lossy: %g", got)
	}
}

func TestRandomLinksDeterministic(t *testing.T) {
	a := RandomLinks(42, 4, 10, 12)
	b := RandomLinks(42, 4, 10, 12)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different schedules")
	}
	if len(a.Events) != 12 {
		t.Fatalf("got %d events", len(a.Events))
	}
	for _, e := range a.Events {
		if e.From == e.To || e.From < 0 || e.From >= 4 || e.To < 0 || e.To >= 4 {
			t.Errorf("bad link %d-%d", e.From, e.To)
		}
		if e.Kind != LinkDelay && (e.Prob <= 0 || e.Prob > 0.35) {
			t.Errorf("probability out of the within-budget band: %+v", e)
		}
	}
	// Random schedules stay inside the grammar.
	if _, err := ParseLinkEvents(a.String()); err != nil {
		t.Errorf("random schedule does not re-parse: %v", err)
	}
	if c := RandomLinks(43, 4, 10, 12); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestHash01(t *testing.T) {
	if Hash01(7, 1, 2, 3) != Hash01(7, 1, 2, 3) {
		t.Error("not deterministic")
	}
	if Hash01(7, 1, 2, 3) == Hash01(7, 1, 2, 4) {
		t.Error("insensitive to parts")
	}
	if Hash01(7, 1, 2, 3) == Hash01(8, 1, 2, 3) {
		t.Error("insensitive to seed")
	}
	// Crude uniformity check: mean of many draws near 0.5.
	var sum float64
	const n = 4096
	for i := 0; i < n; i++ {
		v := Hash01(11, int64(i))
		if v < 0 || v >= 1 {
			t.Fatalf("out of range: %g", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("mean = %g, want ~0.5", mean)
	}
}

// FuzzParseLinkEvents checks that any spec the parser accepts survives a
// String() round trip to an equal schedule.
func FuzzParseLinkEvents(f *testing.F) {
	f.Add("link0-2:drop0.05@step3")
	f.Add("link1-0:delay1.5ms@step0,link0-1:dup@step2")
	f.Add("link2-1:reorder0.25@step1,link1-2:corrupt@step4")
	f.Add("link0-1:drop0.5@step0,link0-1:drop0@step3")
	f.Fuzz(func(t *testing.T, spec string) {
		sch, err := ParseLinkEvents(spec)
		if err != nil {
			return
		}
		again, err := ParseLinkEvents(sch.String())
		if err != nil {
			t.Fatalf("accepted %q but re-parse of %q failed: %v", spec, sch.String(), err)
		}
		if !reflect.DeepEqual(sch, again) {
			t.Fatalf("round trip changed the schedule for %q", spec)
		}
		_ = strings.Count(spec, ",")
	})
}
