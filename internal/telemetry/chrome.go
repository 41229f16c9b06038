package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace_event export: renders retained step records as a JSON
// object Perfetto and chrome://tracing load directly. Every span becomes
// a "complete" ("ph":"X") event with microsecond timestamps relative to
// the recorder's creation; host phases live on one track, the near field
// on a second (so overlapped solves render the concurrency as two
// side-by-side bars instead of nested boxes), balancer activity on a
// third, each virtual device on its own, so one step reads as a stacked
// timeline. Counter ("ph":"C") events chart S and the virtual CPU/GPU
// times across the run.

const (
	chromePID     = 1
	chromeTIDHost = 1
	// Near-field execution renders on its own track: on the overlapped
	// solve path it runs concurrently with the host far-field track.
	chromeTIDNear = 2
	chromeTIDBal  = 3
	// Fault, watchdog, fallback, checkpoint and recovery activity renders
	// on a dedicated track, so resilience transitions read as their own
	// timeline next to the phases they interrupt.
	chromeTIDFault = 4
	// Kernel-layer activity — M2L translation-class table builds and the
	// per-step class/hit-rate counters — renders on its own track.
	chromeTIDKern = 5
	// Step-graph node spans render on their own track so the pipelined
	// schedule reads as one dense timeline next to the host phases.
	chromeTIDTask = 6
	// Distributed-runtime (dmem) node execution and comm-wait spans
	// render on their own track: one bar per virtual cluster node per
	// step (Arg = node id), so the partitioned-tree execution reads as
	// its own timeline next to the single-node phases.
	chromeTIDDmem = 7
)

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func spanTID(k SpanKind) int {
	switch k {
	case SpanNearCPU:
		return chromeTIDNear
	case SpanBalance, SpanPredict, SpanFineGrain, SpanTreeBuild, SpanEnforceS:
		return chromeTIDBal
	case SpanCheckpoint, SpanRestore, SpanCkptWait, SpanValidate:
		return chromeTIDFault
	case SpanM2LTable:
		return chromeTIDKern
	case SpanTaskUp, SpanTaskDown, SpanTaskL2P, SpanTaskNear:
		return chromeTIDTask
	case SpanDmemNode:
		return chromeTIDDmem
	}
	return chromeTIDHost
}

// eventTID routes instant events to their track: resilience events render
// on the fault track, balancer decisions on the balancer track.
func eventTID(k EventKind) int {
	switch k {
	case EventFault, EventWatchdog, EventFallback, EventCapacity,
		EventStepFail, EventRestore, EventAnomaly, EventNetTimeout:
		return chromeTIDFault
	}
	return chromeTIDBal
}

func spanName(k SpanKind, arg int32) string {
	switch k {
	case SpanTaskUp, SpanTaskDown, SpanTaskL2P, SpanDmemNode:
		return fmt.Sprintf("%s %d", k, arg)
	}
	return k.String()
}

// WriteChromeTrace writes the records as a Chrome trace_event JSON
// object. Records come from Recorder.Steps (Options.Keep must be set).
func WriteChromeTrace(w io.Writer, steps []StepRecord) error {
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", PID: chromePID, Args: map[string]any{"name": "afmm"}},
		{Name: "thread_name", Ph: "M", PID: chromePID, TID: chromeTIDHost, Args: map[string]any{"name": "host"}},
		{Name: "thread_name", Ph: "M", PID: chromePID, TID: chromeTIDNear, Args: map[string]any{"name": "near"}},
		{Name: "thread_name", Ph: "M", PID: chromePID, TID: chromeTIDBal, Args: map[string]any{"name": "balancer"}},
		{Name: "thread_name", Ph: "M", PID: chromePID, TID: chromeTIDFault, Args: map[string]any{"name": "faults"}},
		{Name: "thread_name", Ph: "M", PID: chromePID, TID: chromeTIDKern, Args: map[string]any{"name": "kernels"}},
		{Name: "thread_name", Ph: "M", PID: chromePID, TID: chromeTIDTask, Args: map[string]any{"name": "taskgraph"}},
		{Name: "thread_name", Ph: "M", PID: chromePID, TID: chromeTIDDmem, Args: map[string]any{"name": "dmem"}},
	}
	for i := range steps {
		rec := &steps[i]
		base := float64(rec.StartNs) / 1e3
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("step %d", rec.Step),
			Ph:   "X", PID: chromePID, TID: chromeTIDHost,
			TS: base, Dur: float64(rec.WallNs) / 1e3, Cat: "step",
			Args: map[string]any{
				"s": rec.S, "state": rec.State,
				"cpu": rec.CPU, "gpu": rec.GPU, "compute": rec.Compute,
			},
		})
		for _, sp := range rec.Spans {
			events = append(events, chromeEvent{
				Name: spanName(sp.Kind, sp.Arg),
				Ph:   "X", PID: chromePID, TID: spanTID(sp.Kind),
				TS:  base + float64(sp.StartNs)/1e3,
				Dur: float64(sp.DurNs) / 1e3,
				Cat: "phase",
			})
		}
		for _, ev := range rec.Events {
			tid := eventTID(ev.Kind)
			cat := "balancer"
			if tid == chromeTIDFault {
				cat = "fault"
			}
			events = append(events, chromeEvent{
				Name: ev.Kind.String(),
				Ph:   "i", PID: chromePID, TID: tid,
				TS: base, Cat: cat,
				Args: map[string]any{"a": ev.A, "b": ev.B, "fa": ev.FA, "fb": ev.FB},
			})
		}
		events = append(events,
			chromeEvent{Name: "S", Ph: "C", PID: chromePID, TID: chromeTIDHost, TS: base,
				Args: map[string]any{"S": rec.S}},
			chromeEvent{Name: "virtual time", Ph: "C", PID: chromePID, TID: chromeTIDHost, TS: base,
				Args: map[string]any{"cpu": rec.CPU, "gpu": rec.GPU}},
		)
		if rec.M2LClasses > 0 {
			events = append(events, chromeEvent{
				Name: "m2l table", Ph: "C", PID: chromePID, TID: chromeTIDKern, TS: base,
				Args: map[string]any{
					"classes": rec.M2LClasses, "pairs": rec.M2LPairs,
					"rows_reused": rec.M2LRowsReused, "classes_new": rec.M2LClassesNew,
				},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}

// WriteChrome writes the recorder's retained records (Options.Keep) as a
// Chrome trace.
func (r *Recorder) WriteChrome(w io.Writer) error {
	if r == nil {
		return nil
	}
	return WriteChromeTrace(w, r.Steps())
}
