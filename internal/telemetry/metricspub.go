package telemetry

import (
	"fmt"

	"afmm/internal/metrics"
)

// stepMetrics holds the recorder's cached metric handles: every series
// the per-step publish touches is resolved once at construction (or on
// first sight, for per-device series), so the EndStep hot path is pure
// atomic arithmetic with no map lookups or label formatting.
//
// The metric name catalog lives in docs/OBSERVABILITY.md; keep the two
// in sync.
type stepMetrics struct {
	reg *metrics.Registry

	steps    metrics.Counter
	lastStep metrics.Gauge
	lastWall metrics.Gauge

	stepWall   metrics.Histogram
	serialWall metrics.Histogram
	phase      [numSpanKinds]metrics.Histogram

	events    [numEventKinds]metrics.Counter
	anomalies [numSpanKinds]metrics.Counter

	listRegime [3]metrics.Counter // full, repair, skip
	listPairs  metrics.Counter

	classBusy [NumClasses]metrics.Counter

	sVal   metrics.Gauge
	cpuV   metrics.Gauge
	gpuV   metrics.Gauge
	predC  metrics.Gauge
	predG  metrics.Gauge
	treeOp [2]metrics.Counter // collapses, pushdowns

	direct [2]metrics.Gauge // pairs, interactions

	taskRatio metrics.Gauge
	taskNodes metrics.Gauge
	taskReady metrics.Gauge

	dumps metrics.Counter

	devKernel []metrics.Gauge
	devInter  []metrics.Counter
}

func newStepMetrics(reg *metrics.Registry, flight *FlightRecorder) *stepMetrics {
	m := &stepMetrics{reg: reg}
	m.steps = reg.Counter("afmm_steps_total", "finalized simulation steps")
	m.lastStep = reg.Gauge("afmm_last_step", "index of the most recently finalized step")
	m.lastWall = reg.Gauge("afmm_last_step_wall_seconds", "wall clock of the most recently finalized step")
	m.stepWall = reg.Histogram("afmm_step_wall_seconds", "step wall-clock distribution", metrics.DefBuckets())
	m.serialWall = reg.Histogram("afmm_step_serial_wall_seconds",
		"serial-equivalent step wall on overlapped solves", metrics.DefBuckets())
	for k := SpanKind(0); k < numSpanKinds; k++ {
		if k.TopLevel() {
			m.phase[k] = reg.Histogram("afmm_phase_seconds",
				"per-step top-level phase durations", metrics.DefBuckets(), "phase", k.String())
		}
	}
	for k := EventKind(0); k < numEventKinds; k++ {
		m.events[k] = reg.Counter("afmm_events_total", "telemetry events by kind", "kind", k.String())
	}
	m.listRegime[0] = reg.Counter("afmm_list_builds_total", "interaction-list builds by regime", "regime", "full")
	m.listRegime[1] = reg.Counter("afmm_list_builds_total", "interaction-list builds by regime", "regime", "repair")
	m.listRegime[2] = reg.Counter("afmm_list_builds_total", "interaction-list builds by regime", "regime", "skip")
	m.listPairs = reg.Counter("afmm_list_pairs_total", "interaction pairs produced by list builds")
	for c := 0; c < NumClasses; c++ {
		m.classBusy[c] = reg.Counter("afmm_worker_busy_ns_total",
			"sched pool busy time by work class (ns)", "class", ClassNames[c])
	}
	m.sVal = reg.Gauge("afmm_s_value", "current leaf-capacity parameter S")
	m.cpuV = reg.Gauge("afmm_virtual_seconds", "virtual compute time of the last step", "unit", "cpu")
	m.gpuV = reg.Gauge("afmm_virtual_seconds", "virtual compute time of the last step", "unit", "gpu")
	m.predC = reg.Gauge("afmm_predicted_seconds", "pre-solve model prediction of the last step", "unit", "cpu")
	m.predG = reg.Gauge("afmm_predicted_seconds", "pre-solve model prediction of the last step", "unit", "gpu")
	m.treeOp[0] = reg.Counter("afmm_tree_edits_total", "balancer tree edits", "kind", "collapse")
	m.treeOp[1] = reg.Counter("afmm_tree_edits_total", "balancer tree edits", "kind", "pushdown")
	m.direct[0] = reg.Gauge("afmm_direct_per_step",
		"accepted pairs the last step summed directly instead of translating", "unit", "pairs")
	m.direct[1] = reg.Gauge("afmm_direct_per_step",
		"accepted pairs the last step summed directly instead of translating", "unit", "interactions")
	m.taskRatio = reg.Gauge("afmm_taskgraph_critical_path_ratio",
		"critical path / makespan of the last task-graph step (1 = no slack)")
	m.taskNodes = reg.Gauge("afmm_taskgraph_nodes", "node count of the last task-graph step")
	m.taskReady = reg.Gauge("afmm_taskgraph_max_ready", "ready-queue high-water mark of the last task-graph step")
	if flight != nil {
		m.dumps = reg.Counter("afmm_flightrec_dumps_total", "flight-recorder dumps written")
	}
	return m
}

// publish folds one finalized step into the registry. Called under the
// recorder's step lock with the step's deep-copied snapshot.
func (m *stepMetrics) publish(rec *StepRecord) {
	m.steps.Inc()
	m.lastStep.Set(float64(rec.Step))
	m.lastWall.Set(float64(rec.WallNs) / 1e9)
	m.stepWall.Observe(float64(rec.WallNs) / 1e9)
	if rec.Overlapped && rec.SerialWallNs > 0 {
		m.serialWall.Observe(float64(rec.SerialWallNs) / 1e9)
	}

	var sums [numSpanKinds]int64
	for _, sp := range rec.Spans {
		if sp.Kind.TopLevel() {
			sums[sp.Kind] += sp.DurNs
		}
	}
	for k := range sums {
		if sums[k] > 0 {
			m.phase[k].Observe(float64(sums[k]) / 1e9)
		}
	}

	for _, ev := range rec.Events {
		if int(ev.Kind) < len(m.events) {
			m.events[ev.Kind].Inc()
		}
		if ev.Kind == EventAnomaly && ev.A >= 0 && ev.A < int64(numSpanKinds) {
			k := SpanKind(ev.A)
			if !m.hasAnomaly(k) {
				m.anomalies[k] = m.reg.Counter("afmm_anomalies_total",
					"sentinel alarms by phase", "phase", k.String())
			}
			m.anomalies[k].Inc()
		}
	}

	m.listRegime[0].Add(int64(rec.Lists.Full))
	m.listRegime[1].Add(int64(rec.Lists.Repairs))
	m.listRegime[2].Add(int64(rec.Lists.Skips))
	m.listPairs.Add(rec.Lists.Pairs)

	for c := 0; c < NumClasses && c < len(rec.ClassBusyNs); c++ {
		m.classBusy[c].Add(rec.ClassBusyNs[c])
	}

	m.sVal.Set(float64(rec.S))
	m.cpuV.Set(rec.CPU)
	m.gpuV.Set(rec.GPU)
	if rec.PredCPU > 0 || rec.PredGPU > 0 {
		m.predC.Set(rec.PredCPU)
		m.predG.Set(rec.PredGPU)
	}
	m.treeOp[0].Add(int64(rec.Collapses))
	m.treeOp[1].Add(int64(rec.Pushdowns))

	m.direct[0].Set(float64(rec.DirectPairs))
	m.direct[1].Set(float64(rec.DirectInteractions))

	if rec.TaskMakespanNs > 0 {
		m.taskRatio.Set(float64(rec.TaskCriticalNs) / float64(rec.TaskMakespanNs))
		m.taskNodes.Set(float64(rec.TaskNodes))
		m.taskReady.Set(float64(rec.TaskMaxReady))
	}

	for i, d := range rec.Devices {
		for len(m.devKernel) <= i {
			id := fmt.Sprintf("%d", len(m.devKernel))
			m.devKernel = append(m.devKernel, m.reg.Gauge("afmm_device_kernel_seconds",
				"virtual kernel seconds of the last step", "device", id))
			m.devInter = append(m.devInter, m.reg.Counter("afmm_device_interactions_total",
				"near-field interactions executed", "device", id))
		}
		m.devKernel[i].Set(d.Kernel)
		m.devInter[i].Add(d.Interactions)
	}
}

// hasAnomaly reports whether the per-phase anomaly handle is live (the
// zero Counter and a freshly registered one both read 0, so the lazy
// registration above keys on the handle itself).
func (m *stepMetrics) hasAnomaly(k SpanKind) bool {
	return m.anomalies[k] != (metrics.Counter{})
}
