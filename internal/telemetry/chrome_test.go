package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestWriteChromeTrace(t *testing.T) {
	r := New(Options{Keep: true})
	for step := 0; step < 2; step++ {
		r.StartStep(step)
		r.Update(func(sr *StepRecord) {
			sr.Step, sr.S, sr.State = step, 64, "search"
			sr.CPU, sr.GPU = 1, 2
		})
		r.AddSpan(SpanUpSweep, 0, time.Now(), time.Millisecond)
		r.AddSpan(SpanTaskUp, 3, time.Now(), time.Microsecond)
		r.AddSpan(SpanNearCPU, 0, time.Now(), time.Microsecond)
		r.AddSpan(SpanTreeBuild, 64, time.Now(), time.Microsecond)
		r.EmitEvent(EventSChange, 32, 64, 0, 0)
		r.EndStep()
	}
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var sawMeta, sawStep, sawSpan, sawLevel, sawNear, sawBalancerTid, sawInstant, sawCounter bool
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		switch ph {
		case "M":
			sawMeta = true
		case "X":
			switch {
			case name == "step 0" || name == "step 1":
				sawStep = true
			case name == "far.up":
				sawSpan = true
			case name == "task.up 3":
				sawLevel = true
			case name == "near.cpu":
				sawNear = true
				if tid, _ := ev["tid"].(float64); tid != chromeTIDNear {
					t.Fatalf("near.cpu on tid %v, want near tid %d", ev["tid"], chromeTIDNear)
				}
			case name == "tree.build":
				if tid, _ := ev["tid"].(float64); tid != chromeTIDBal {
					t.Fatalf("tree.build on tid %v, want balancer tid %d", ev["tid"], chromeTIDBal)
				}
				sawBalancerTid = true
			}
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("X event without dur: %v", ev)
			}
		case "i":
			sawInstant = true
		case "C":
			sawCounter = true
		}
	}
	if !sawMeta || !sawStep || !sawSpan || !sawLevel || !sawNear || !sawBalancerTid || !sawInstant || !sawCounter {
		t.Fatalf("missing event classes: meta=%v step=%v span=%v level=%v near=%v bal=%v instant=%v counter=%v",
			sawMeta, sawStep, sawSpan, sawLevel, sawNear, sawBalancerTid, sawInstant, sawCounter)
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatalf("empty trace: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty chrome trace is not JSON: %v", err)
	}
}

// TestChromeTrackMapping pins the tid <-> track assignment of every span
// and event kind. The tids are part of the trace contract — saved traces
// and Perfetto configs reference them — so adding a new track must not
// renumber an existing one. A new kind failing here means: pick a track
// deliberately, then extend this table.
func TestChromeTrackMapping(t *testing.T) {
	const (
		host = 1
		near = 2
		bal  = 3
		flt  = 4
		kern = 5
		task = 6
		dmem = 7
	)
	spanTracks := map[SpanKind]int{
		SpanSolve:      host,
		SpanPrep:       host,
		SpanTreeBuild:  bal,
		SpanRefill:     host,
		SpanEnforceS:   bal,
		SpanListFull:   host,
		SpanListRepair: host,
		SpanListSkip:   host,
		SpanUpSweep:    host,
		SpanDownSweep:  host,
		SpanL2P:        host,
		SpanNearCPU:    near,
		SpanGraph:      host,
		SpanVCPUSim:    host,
		SpanObserve:    host,
		SpanIntegrate:  host,
		SpanForces:     host,
		SpanBalance:    bal,
		SpanPredict:    bal,
		SpanFineGrain:  bal,
		SpanValidate:   flt,
		SpanCheckpoint: flt,
		SpanRestore:    flt,
		SpanCkptWait:   flt,
		SpanM2LTable:   kern,
		SpanTaskUp:     task,
		SpanTaskDown:   task,
		SpanTaskL2P:    task,
		SpanTaskNear:   task,
		SpanDmemNode:   dmem,
	}
	if len(spanTracks) != int(numSpanKinds) {
		t.Fatalf("track table covers %d span kinds, package has %d — extend the table",
			len(spanTracks), numSpanKinds)
	}
	for k, want := range spanTracks {
		if got := spanTID(k); got != want {
			t.Errorf("spanTID(%v) = %d, want %d", k, got, want)
		}
	}

	eventTracks := map[EventKind]int{
		EventState:       bal,
		EventSChange:     bal,
		EventRebuild:     bal,
		EventSearchProbe: bal,
		EventNudge:       bal,
		EventDomFlip:     bal,
		EventRegression:  bal,
		EventPrediction:  bal,
		EventEnforceS:    bal,
		EventFineGrain:   bal,
		EventFault:       flt,
		EventWatchdog:    flt,
		EventFallback:    flt,
		EventCapacity:    flt,
		EventStepFail:    flt,
		EventRestore:     flt,
		EventAnomaly:     flt,
		EventNetTimeout:  flt,
	}
	if len(eventTracks) != int(numEventKinds) {
		t.Fatalf("track table covers %d event kinds, package has %d — extend the table",
			len(eventTracks), numEventKinds)
	}
	for k, want := range eventTracks {
		if got := eventTID(k); got != want {
			t.Errorf("eventTID(%v) = %d, want %d", k, got, want)
		}
	}
}
