package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRecorderIsNoOp: every method must be callable on a nil receiver
// (the hot paths rely on it).
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	r.StartStep(0)
	tok := r.Begin(SpanUpSweep, 0)
	r.End(tok)
	r.AddSpan(SpanPrep, 0, time.Now(), time.Millisecond)
	r.EmitEvent(EventState, 0, 1, 0, 0)
	r.Update(func(*StepRecord) { t.Fatal("nil recorder ran an Update") })
	r.EndStep()
	if _, ok := r.Last(); ok {
		t.Fatal("nil recorder has a last record")
	}
	if r.Steps() != nil || r.StepsDone() != 0 || r.Err() != nil {
		t.Fatal("nil recorder reports state")
	}
	if err := r.WriteChrome(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteChrome: %v", err)
	}
}

func TestStepRecordTotals(t *testing.T) {
	r := New(Options{Keep: true})
	r.StartStep(3)
	r.Update(func(sr *StepRecord) {
		sr.Step, sr.S, sr.State = 3, 128, "observation"
		sr.CPU, sr.GPU, sr.CPUEff, sr.GPUEff = 1.5, 2.5, 0.9, 0.8
		sr.LB, sr.Refill = 0.25, 0.125
	})
	r.EndStep()
	rec, ok := r.Last()
	if !ok {
		t.Fatal("no last record")
	}
	if rec.Step != 3 || rec.S != 128 || rec.State != "observation" {
		t.Fatalf("identity fields wrong: %+v", rec)
	}
	if rec.Compute != 2.5 {
		t.Fatalf("Compute = %g, want max(1.5, 2.5)", rec.Compute)
	}
	if want := 2.5 + 0.25 + 0.125; rec.Total != want {
		t.Fatalf("Total = %g, want %g", rec.Total, want)
	}
	if rec.WallNs < 0 {
		t.Fatalf("WallNs negative: %d", rec.WallNs)
	}
	if r.StepsDone() != 1 || len(r.Steps()) != 1 {
		t.Fatalf("step accounting wrong: done=%d kept=%d", r.StepsDone(), len(r.Steps()))
	}
}

func TestSpansAndClassification(t *testing.T) {
	r := New(Options{Keep: true})
	r.StartStep(0)
	tok := r.Begin(SpanListFull, 0)
	time.Sleep(time.Millisecond)
	r.End(tok)
	r.AddSpan(SpanTaskUp, 5, time.Now(), 2*time.Millisecond)
	r.EndStep()
	rec, _ := r.Last()
	if len(rec.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(rec.Spans))
	}
	if rec.Spans[0].Kind != SpanListFull {
		t.Fatalf("End changed the Begin kind: %v", rec.Spans[0].Kind)
	}
	if rec.Spans[0].DurNs < int64(time.Millisecond) {
		t.Fatalf("span duration too small: %d", rec.Spans[0].DurNs)
	}
	if rec.Spans[1].Arg != 5 || rec.Spans[1].DurNs != int64(2*time.Millisecond) {
		t.Fatalf("AddSpan fields wrong: %+v", rec.Spans[1])
	}
}

// TestAutoStep: spans emitted without an explicit StartStep bracket open
// steps automatically (a bare Solve under a recorder still traces).
func TestAutoStep(t *testing.T) {
	r := New(Options{Keep: true})
	r.AddSpan(SpanPrep, 0, time.Now(), time.Microsecond)
	r.EndStep()
	r.AddSpan(SpanPrep, 0, time.Now(), time.Microsecond)
	r.EndStep()
	steps := r.Steps()
	if len(steps) != 2 {
		t.Fatalf("kept %d records, want 2", len(steps))
	}
	if steps[0].Step != 0 || steps[1].Step != 1 {
		t.Fatalf("auto step numbering = %d, %d; want 0, 1", steps[0].Step, steps[1].Step)
	}
}

// TestStartStepFinalizesOpenStep: a missing EndStep cannot lose a record.
func TestStartStepFinalizesOpenStep(t *testing.T) {
	r := New(Options{Keep: true})
	r.StartStep(0)
	r.Update(func(sr *StepRecord) { sr.CPU = 1 })
	r.StartStep(1) // no EndStep for step 0
	r.EndStep()
	if len(r.Steps()) != 2 {
		t.Fatalf("kept %d records, want 2", len(r.Steps()))
	}
	if r.Steps()[0].CPU != 1 {
		t.Fatalf("step 0 record lost its data")
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	r := New(Options{JSONL: &buf})
	for i := 0; i < 3; i++ {
		r.StartStep(i)
		r.Update(func(sr *StepRecord) {
			sr.Step, sr.S, sr.State = i, 64, "search"
			sr.CPU, sr.GPU = float64(i), 1
			sr.Lists = ListDelta{Skips: 1, Pairs: 42}
		})
		r.EmitEvent(EventRebuild, 64, 0, 0, 0)
		r.EndStep()
	}
	if err := r.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	var n int
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d not JSON: %v", n, err)
		}
		if int(m["step"].(float64)) != n {
			t.Fatalf("line %d has step %v", n, m["step"])
		}
		for _, key := range []string{"s", "state", "cpu", "gpu", "compute", "total", "wall_ns", "lists", "events"} {
			if _, ok := m[key]; !ok {
				t.Fatalf("line %d missing %q: %v", n, key, m)
			}
		}
		ev := m["events"].([]any)[0].(map[string]any)
		if ev["k"] != "rebuild" {
			t.Fatalf("event kind = %v, want rebuild", ev["k"])
		}
		n++
	}
	if n != 3 {
		t.Fatalf("got %d JSONL lines, want 3", n)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestSinkErrorSurfaced(t *testing.T) {
	r := New(Options{JSONL: failWriter{}})
	r.StartStep(0)
	r.EndStep()
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("sink error not surfaced: %v", err)
	}
}

// TestConcurrentEmission exercises the recorder from many goroutines at
// once — the dmem node goroutines emit spans concurrently in real runs.
// Run under -race in CI.
func TestConcurrentEmission(t *testing.T) {
	var buf bytes.Buffer
	r := New(Options{JSONL: &buf, Keep: true})
	const steps, emitters, spansPer = 20, 8, 25
	for step := 0; step < steps; step++ {
		r.StartStep(step)
		var wg sync.WaitGroup
		for g := 0; g < emitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < spansPer; i++ {
					tok := r.Begin(SpanTaskNear, int32(g))
					r.End(tok)
					r.EmitEvent(EventFineGrain, int64(i), 0, 0, 0)
					r.Update(func(sr *StepRecord) {
						sr.Devices = append(sr.Devices, DeviceSample{Kernel: 0.1, Interactions: int64(i)})
					})
				}
			}(g)
		}
		// Concurrent readers too.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Last()
				r.StepsDone()
			}
		}()
		wg.Wait()
		r.Update(func(sr *StepRecord) { sr.CPU, sr.GPU = 1, 2 })
		r.EndStep()
	}
	if err := r.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	kept := r.Steps()
	if len(kept) != steps {
		t.Fatalf("kept %d records, want %d", len(kept), steps)
	}
	for _, rec := range kept {
		if len(rec.Spans) != emitters*spansPer {
			t.Fatalf("step %d has %d spans, want %d", rec.Step, len(rec.Spans), emitters*spansPer)
		}
		if len(rec.Devices) != emitters*spansPer {
			t.Fatalf("step %d has %d device samples", rec.Step, len(rec.Devices))
		}
	}
}

// TestConcurrentRecorders: independent recorders on separate goroutines
// must not interfere (each solver in a multi-solver benchmark owns one).
func TestConcurrentRecorders(t *testing.T) {
	const n = 4
	var wg sync.WaitGroup
	recs := make([]*Recorder, n)
	for i := range recs {
		recs[i] = New(Options{Keep: true})
		wg.Add(1)
		go func(r *Recorder, id int) {
			defer wg.Done()
			for step := 0; step < 30; step++ {
				r.StartStep(step)
				r.Update(func(sr *StepRecord) { sr.Step, sr.S, sr.State = step, id, "search" })
				r.AddSpan(SpanPrep, int32(id), time.Now(), time.Microsecond)
				r.EndStep()
			}
		}(recs[i], i)
	}
	wg.Wait()
	for i, r := range recs {
		if got := len(r.Steps()); got != 30 {
			t.Fatalf("recorder %d kept %d records", i, got)
		}
		if r.Steps()[7].S != i {
			t.Fatalf("recorder %d saw cross-talk: S=%d", i, r.Steps()[7].S)
		}
	}
}

func TestPhaseNsSumsTopLevelOnly(t *testing.T) {
	rec := StepRecord{Spans: []Span{
		{Kind: SpanSolve, DurNs: 1000},  // parent: excluded
		{Kind: SpanPrep, DurNs: 10},     // top-level
		{Kind: SpanUpSweep, DurNs: 20},  // top-level
		{Kind: SpanTaskUp, DurNs: 999},  // nested: excluded
		{Kind: SpanTaskNear, DurNs: 99}, // nested: excluded
		{Kind: SpanBalance, DurNs: 30},  // top-level
	}}
	if got := rec.PhaseNs(); got != 60 {
		t.Fatalf("PhaseNs = %d, want 60", got)
	}
}

func TestSpanAndEventNamesComplete(t *testing.T) {
	for k := SpanKind(0); k < numSpanKinds; k++ {
		if strings.HasPrefix(k.String(), "span(") {
			t.Fatalf("span kind %d has no name", k)
		}
	}
	for k := EventKind(0); k < numEventKinds; k++ {
		if strings.HasPrefix(k.String(), "event(") {
			t.Fatalf("event kind %d has no name", k)
		}
	}
}

// TestUpdateRecyclesSliceBuffers: the slice fields start every step
// empty, an Update appends into the recycled buffer, and a kept record
// does not see a later step's writes.
func TestUpdateRecyclesSliceBuffers(t *testing.T) {
	r := New(Options{Keep: true})
	for step, busy := range [][]int64{{1, 2, 3}, nil, {4, 5}} {
		r.StartStep(step)
		if busy != nil {
			r.Update(func(sr *StepRecord) {
				if len(sr.WorkerBusyNs) != 0 || len(sr.ClassBusyNs) != 0 || len(sr.Devices) != 0 {
					t.Fatalf("step %d opened with stale slices: %+v", step, sr)
				}
				sr.WorkerBusyNs = append(sr.WorkerBusyNs, busy...)
				sr.ClassBusyNs = append(sr.ClassBusyNs, busy...)
			})
		}
		r.EndStep()
	}
	kept := r.Steps()
	for i, want := range []int{3, 0, 2} {
		if len(kept[i].WorkerBusyNs) != want || len(kept[i].ClassBusyNs) != want {
			t.Fatalf("step %d kept %v / %v, want %d entries", i, kept[i].WorkerBusyNs, kept[i].ClassBusyNs, want)
		}
	}
	if kept[0].WorkerBusyNs[0] != 1 || kept[2].ClassBusyNs[1] != 5 {
		t.Fatalf("kept records share a buffer: %v, %v", kept[0].WorkerBusyNs, kept[2].ClassBusyNs)
	}
}
