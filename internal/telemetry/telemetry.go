// Package telemetry is the step-trace observability layer of the
// reproduction: a low-overhead recorder that captures, per simulation
// step, (a) host wall-clock spans for every phase and operator group —
// tree build/refill, interaction-list skip/repair/full-build, the
// up/down-sweep levels, the CPU near field, per-device P2P kernels, and
// the balancer's Collapse/PushDown/EnforceS edits; (b) typed balancer
// events (state transitions, S changes, predicted-vs-actual compute
// times, regression triggers); (c) per-worker busy time from the sched
// pool; and (d) the cost-model observation of the step (operation
// counts, attributed times, fitted coefficients), so predictor drift is
// plottable across a trajectory.
//
// Spans and events are appended (Begin/End, AddSpan, EmitEvent); every
// other StepRecord field is assigned through Update by the layer that
// knows its value, and Compute/Total are derived when the step ends.
//
// A nil *Recorder is valid everywhere and compiles to no-ops, so the
// solver hot paths carry no tracing cost when telemetry is off. With a
// recorder attached the per-span cost is two time.Now calls and one
// mutex-guarded append into a preallocated buffer; the only allocating
// work (JSON encoding) happens once per step in EndStep, off the solver
// hot path.
//
// Sinks: JSONL step records (Options.JSONL, one record per line), a
// Chrome trace_event export for about:tracing / Perfetto (WriteChrome),
// and a live expvar + net/http/pprof debug server (StartDebug). See
// docs/OBSERVABILITY.md for the record schema.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"afmm/internal/metrics"
)

// NumOps mirrors costmodel.NumOps: the six FMM operations in canonical
// order P2M, M2M, M2L, L2L, L2P, P2P. The telemetry package keeps its own
// constant (and no costmodel import) so it depends only on the standard
// library and can be threaded through every layer without cycles.
const NumOps = 6

// OpNames are the canonical operation names, indexing Counts/OpTime/Coef.
var OpNames = [NumOps]string{"P2M", "M2M", "M2L", "L2L", "L2P", "P2P"}

// NumClasses / ClassNames mirror the sched work classes (same
// no-import rationale as NumOps): StepRecord.ClassBusyNs and the
// per-class busy metrics are indexed in this order.
const NumClasses = 3

// ClassNames are the sched work-class names, indexing ClassBusyNs.
var ClassNames = [NumClasses]string{"general", "far", "near"}

// SpanKind identifies an instrumented phase or operator group.
type SpanKind uint8

// The instrumented span kinds. Top-level phases tile a step (the solve's
// near and far phases concurrently, everything else without overlap); the
// remaining kinds nest inside them (graph nodes inside the far and near
// phases, tree edits inside the balance phase).
const (
	// SpanSolve covers one whole Solve call (parent of the solve phases).
	SpanSolve SpanKind = iota
	// SpanPrep is accumulator reset + expansion-slab preparation.
	SpanPrep
	// SpanTreeBuild is a full Rebuild (balancer Search/Incremental states).
	SpanTreeBuild
	// SpanRefill is the per-step re-binning of moved bodies.
	SpanRefill
	// SpanEnforceS is the Enforce_S invariant restoration.
	SpanEnforceS
	// SpanListFull / SpanListRepair / SpanListSkip classify what BuildLists
	// did, from the ListStats delta: full dual traversal, local repair, or
	// cache hit.
	SpanListFull
	SpanListRepair
	SpanListSkip
	// SpanUpSweep / SpanDownSweep / SpanL2P are the far-field phases of
	// the step graph — P2M+M2M, M2L+L2L, and the leaf evaluation: each
	// starts at the phase's first graph node and lasts the union of its
	// node spans (SpanTaskUp / SpanTaskDown / SpanTaskL2P, which carry the
	// level in Arg).
	SpanUpSweep
	SpanDownSweep
	SpanL2P
	// SpanNearCPU is the near field, the same union over the SpanTaskNear
	// chunks. The host computes it on every configuration: a simulated
	// device only charges the virtual clock for its rows.
	SpanNearCPU
	// SpanGraph is operation counting + task-graph construction;
	// SpanVCPUSim the virtual-CPU schedule replay; SpanObserve the
	// cost-model coefficient fold.
	SpanGraph
	SpanVCPUSim
	SpanObserve
	// SpanIntegrate is the position update; SpanForces the Stokes boundary
	// force accumulation.
	SpanIntegrate
	SpanForces
	// SpanBalance covers Balancer.AfterStep; SpanPredict and SpanFineGrain
	// nest inside it.
	SpanBalance
	SpanPredict
	SpanFineGrain
	// SpanValidate is the opt-in post-solve NaN/Inf accumulator scan.
	SpanValidate
	// SpanCheckpoint / SpanRestore bracket snapshot capture+write and
	// snapshot restoration in the step loop (Arg = step).
	SpanCheckpoint
	SpanRestore
	// SpanCkptWait is the time the step loop blocked waiting for a
	// still-in-flight asynchronous checkpoint write (streaming checkpoints;
	// zero-duration when the writer kept up).
	SpanCkptWait
	// SpanM2LTable is the shared M2L translation-class table build
	// (classification + per-class operator precompute), rendered on the
	// kernels track. Arg = number of classes built.
	SpanM2LTable
	// Step-graph node spans, rendered on their own Chrome-trace track: one
	// span per executed graph node. SpanTaskUp / SpanTaskDown are
	// far-field chunk nodes (Arg = octree level), SpanTaskL2P the leaf
	// evaluation nodes (Arg = level), SpanTaskNear the near-field root
	// nodes (Arg = CSR chunk index). Milestone (join) nodes are not emitted — they carry no work.
	SpanTaskUp
	SpanTaskDown
	SpanTaskL2P
	SpanTaskNear
	// SpanDmemNode is one virtual cluster node's share of a dmem step
	// (Arg = node id), rendered on its own Chrome-trace track: the union
	// of the wall intervals of the node's nodes in the step graph — its
	// unpacks, P2Ms, share of the step graph and sends.
	SpanDmemNode
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	SpanSolve:      "solve",
	SpanPrep:       "prep",
	SpanTreeBuild:  "tree.build",
	SpanRefill:     "tree.refill",
	SpanEnforceS:   "tree.enforceS",
	SpanListFull:   "list.full",
	SpanListRepair: "list.repair",
	SpanListSkip:   "list.skip",
	SpanUpSweep:    "far.up",
	SpanDownSweep:  "far.down",
	SpanL2P:        "far.l2p",
	SpanNearCPU:    "near.cpu",
	SpanGraph:      "vm.graph",
	SpanVCPUSim:    "vm.sim",
	SpanObserve:    "vm.observe",
	SpanIntegrate:  "integrate",
	SpanForces:     "forces",
	SpanBalance:    "balance",
	SpanPredict:    "balance.predict",
	SpanFineGrain:  "balance.finegrain",
	SpanValidate:   "validate",
	SpanCheckpoint: "ckpt.save",
	SpanRestore:    "ckpt.restore",
	SpanCkptWait:   "ckpt.wait",
	SpanM2LTable:   "kernels.m2ltable",
	SpanTaskUp:     "task.up",
	SpanTaskDown:   "task.down",
	SpanTaskL2P:    "task.l2p",
	SpanTaskNear:   "task.near",
	SpanDmemNode:   "dmem.node",
}

func (k SpanKind) String() string {
	if int(k) < len(spanNames) && spanNames[k] != "" {
		return spanNames[k]
	}
	return fmt.Sprintf("span(%d)", int(k))
}

// TopLevel reports whether the kind belongs to the non-overlapping phase
// set that tiles a step: summing the durations of the top-level spans of
// one record approximates the step's wall clock (the acceptance check is
// within 5%). Parent spans (SpanSolve, SpanBalance) and nested spans
// (graph nodes, balancer sub-operations) are excluded. Note that
// the solve's near and far top-level spans run concurrently, so their sum
// measures serial-equivalent work, which can legitimately exceed the
// step's wall clock.
func (k SpanKind) TopLevel() bool {
	switch k {
	case SpanPrep, SpanRefill, SpanListFull, SpanListRepair, SpanListSkip,
		SpanUpSweep, SpanDownSweep, SpanL2P, SpanNearCPU,
		SpanGraph, SpanVCPUSim, SpanObserve, SpanIntegrate, SpanForces,
		SpanBalance, SpanValidate, SpanCheckpoint, SpanRestore,
		SpanCkptWait, SpanM2LTable:
		return true
	}
	return false
}

// Span is one timed interval. StartNs is relative to the step start.
type Span struct {
	Kind    SpanKind
	Arg     int32
	StartNs int64
	DurNs   int64
}

// MarshalJSON emits the span with its symbolic kind name.
func (s Span) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		K   string `json:"k"`
		Arg int32  `json:"arg,omitempty"`
		T   int64  `json:"t"`
		D   int64  `json:"d"`
	}{s.Kind.String(), s.Arg, s.StartNs, s.DurNs})
}

// EventKind identifies a balancer event.
type EventKind uint8

// Balancer event kinds. The A/B integer and FA/FB float payloads are
// per-kind (documented on each constant).
const (
	// EventState is a state transition: A = from, B = to (balance.State
	// integer values, rendered in Msg-free form by consumers).
	EventState EventKind = iota
	// EventSChange: A = old S, B = new S.
	EventSChange
	// EventRebuild: A = S the tree was rebuilt with.
	EventRebuild
	// EventSearchProbe: A = next probe S of the binary search.
	EventSearchProbe
	// EventNudge: A = old S, B = new S (incremental state).
	EventNudge
	// EventDomFlip: A = previous dominant unit, B = new (+1 CPU, -1 GPU).
	EventDomFlip
	// EventRegression: FA = observed compute time, FB = best seen.
	EventRegression
	// EventPrediction: FA = predicted compute time, FB = the reference it
	// was compared against (the regression threshold baseline).
	EventPrediction
	// EventEnforceS: A = collapses, B = pushdowns performed.
	EventEnforceS
	// EventFineGrain: A = batch node count, FA = predicted compute after
	// the batch.
	EventFineGrain
	// EventFault: an injected or detected device fault. A = device id,
	// B = fault kind (fault.Kind integer), FA = straggle factor when the
	// fault is a derating (0 otherwise).
	EventFault
	// EventWatchdog: the device walk declared a hung device dead at the
	// chunk boundary where the hang landed. A = device id, B = chunk
	// index.
	EventWatchdog
	// EventFallback: the host fallback was charged for a dead device's
	// unfinished rows. A = device id (-1 when every device is dead),
	// B = rows, FA = virtual seconds charged.
	EventFallback
	// EventCapacity: aggregate near-field capacity changed (device loss,
	// derating, or restoration). A = capacity epoch, FA = new capacity
	// (interactions/s), FB = previous capacity.
	EventCapacity
	// EventStepFail: a simulation step failed after exhausting retries.
	// A = step index.
	EventStepFail
	// EventRestore: the step loop restored a snapshot. A = failing step,
	// B = snapshot step execution resumes from.
	EventRestore
	// EventAnomaly: the regression sentinel flagged a step whose wall
	// clock (A = SpanSolve) or phase duration (A = the SpanKind integer)
	// left its rolling EWMA+MAD baseline band. B = step index, FA =
	// observed seconds, FB = the baseline mean it was compared against.
	EventAnomaly
	// EventNetTimeout: dmem flows ran out of their retry budget and the
	// step fell back to degraded recovery. A = such flows, B = step
	// index, FA = frame retries this step, FB = recovery actions
	// (re-requests + host-side ghost re-executions).
	EventNetTimeout
	numEventKinds
)

var eventNames = [numEventKinds]string{
	EventState:       "state",
	EventSChange:     "s_change",
	EventRebuild:     "rebuild",
	EventSearchProbe: "search_probe",
	EventNudge:       "nudge",
	EventDomFlip:     "dom_flip",
	EventRegression:  "regression",
	EventPrediction:  "prediction",
	EventEnforceS:    "enforce_s",
	EventFineGrain:   "fine_grain",
	EventFault:       "fault",
	EventWatchdog:    "watchdog",
	EventFallback:    "fallback",
	EventCapacity:    "capacity",
	EventStepFail:    "step_fail",
	EventRestore:     "restore",
	EventAnomaly:     "anomaly",
	EventNetTimeout:  "net-timeout",
}

func (k EventKind) String() string {
	if int(k) < len(eventNames) && eventNames[k] != "" {
		return eventNames[k]
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one balancer decision record.
type Event struct {
	Kind   EventKind
	A, B   int64
	FA, FB float64
}

// MarshalJSON emits the event with its symbolic kind name.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		K  string  `json:"k"`
		A  int64   `json:"a,omitempty"`
		B  int64   `json:"b,omitempty"`
		FA float64 `json:"fa,omitempty"`
		FB float64 `json:"fb,omitempty"`
	}{e.Kind.String(), e.A, e.B, e.FA, e.FB})
}

// HostPhases is the host wall-clock breakdown a solver reports for one
// Solve call, surfaced through core.StepTimes so step loops need not own a
// recorder to see where the time went.
//
// The near field runs concurrently with the far field inside one step
// graph (Overlapped, set by every Solve): Far and Near are the wall time
// during which a node of that phase was executing, Wall is the real
// elapsed time and SerialWall the serial-equivalent time (the wall the
// same solve would have paid running the phases back-to-back: Wall −
// graph region + Near + Far). SerialWall − Wall is the per-step saving
// from the overlap.
type HostPhases struct {
	List       time.Duration // interaction-list build/repair/skip
	Far        time.Duration // up + down + L2P phases
	Near       time.Duration // CPU near field or device execution
	Wall       time.Duration // whole Solve call, real elapsed
	SerialWall time.Duration // serial-equivalent wall
	Overlapped bool          // near and far phases ran in one graph
}

// ListDelta is one step's interaction-list activity (the octree.ListStats
// delta taken across the step's BuildLists call).
type ListDelta struct {
	Full    int   `json:"full"`
	Repairs int   `json:"repairs"`
	Skips   int   `json:"skips"`
	Pairs   int64 `json:"pairs"`
}

// DeviceSample is one device's kernel result for the step.
type DeviceSample struct {
	Kernel       float64 `json:"kernel"` // virtual kernel seconds
	Interactions int64   `json:"interactions"`
}

// StepRecord is the per-step trace record — one JSON line per step in the
// JSONL sink. Counts/OpTime/Coef are indexed by OpNames.
type StepRecord struct {
	Step    int     `json:"step"`
	S       int     `json:"s"`
	State   string  `json:"state,omitempty"`
	CPU     float64 `json:"cpu"`     // virtual far-field makespan
	GPU     float64 `json:"gpu"`     // virtual max device kernel time
	Compute float64 `json:"compute"` // max(CPU, GPU)
	LB      float64 `json:"lb"`      // virtual balancing time
	Refill  float64 `json:"refill"`  // virtual refill cost
	Total   float64 `json:"total"`   // compute + lb + refill
	CPUEff  float64 `json:"cpu_eff,omitempty"`
	GPUEff  float64 `json:"gpu_eff,omitempty"`

	StartNs int64 `json:"start_ns"` // step start since recorder creation
	WallNs  int64 `json:"wall_ns"`  // host wall clock of the step

	// SerialWallNs is the serial-equivalent solve wall of the step's graph
	// region (see HostPhases); Overlapped marks steps a solver's graph ran
	// in. Both are zero-valued on steps without one (dmem steps).
	SerialWallNs int64 `json:"serial_wall_ns,omitempty"`
	Overlapped   bool  `json:"overlapped,omitempty"`

	Counts [NumOps]int64   `json:"counts"`
	OpTime [NumOps]float64 `json:"op_time"` // observed attributed seconds
	Coef   [NumOps]float64 `json:"coef"`    // fitted coefficients after the fold

	PredCPU float64 `json:"pred_cpu,omitempty"`
	PredGPU float64 `json:"pred_gpu,omitempty"`

	Devices      []DeviceSample `json:"devices,omitempty"`
	WorkerBusyNs []int64        `json:"worker_busy_ns,omitempty"` // per pool slot; last entry = inline bucket
	ClassBusyNs  []int64        `json:"class_busy_ns,omitempty"`  // per sched work class (ClassNames order)
	Lists        ListDelta      `json:"lists"`
	Collapses    int            `json:"collapses,omitempty"`
	Pushdowns    int            `json:"pushdowns,omitempty"`

	// M2L translation-class table effectiveness: classes/pairs of the
	// current schedule; of its last classification the pairs carried
	// verbatim from the previous list epoch (0 after a full build) and the
	// classes it created; and whether this step rebuilt the table (a list
	// topology change); zero-valued when the table path is off.
	M2LClasses    int   `json:"m2l_classes,omitempty"`
	M2LPairs      int64 `json:"m2l_pairs,omitempty"`
	M2LRowsReused int64 `json:"m2l_rows_reused,omitempty"`
	M2LClassesNew int64 `json:"m2l_classes_new,omitempty"`
	M2LRebuilt    bool  `json:"m2l_rebuilt,omitempty"`
	// DirectPairs counts the accepted (V-list) leaf pairs this step summed
	// directly instead of translating, DirectInteractions their body-body
	// interactions. Counts keeps the paper's operator assignment (M2L =
	// every V pair, P2P = U-list interactions only): subtract DirectPairs
	// from Counts.M2L and add DirectInteractions to Counts.P2P to get what
	// the host executed — the shift of host time from the far to the near
	// phase.
	DirectPairs        int64 `json:"direct_pairs,omitempty"`
	DirectInteractions int64 `json:"direct_interactions,omitempty"`

	// Step-graph execution summary: node and edge counts of the step's
	// DAG, the ready-queue depth high-water mark, the measured critical
	// path (longest dependency chain under observed node durations) and
	// the measured makespan of the graph region.
	TaskNodes      int   `json:"task_nodes,omitempty"`
	TaskEdges      int   `json:"task_edges,omitempty"`
	TaskMaxReady   int   `json:"task_max_ready,omitempty"`
	TaskCriticalNs int64 `json:"task_critical_ns,omitempty"`
	TaskMakespanNs int64 `json:"task_makespan_ns,omitempty"`

	Spans  []Span  `json:"spans,omitempty"`
	Events []Event `json:"events,omitempty"`

	// Net carries the dmem link layer's delivery-protocol counters for
	// the step (nil when the distributed runtime is not in play).
	Net *NetSample `json:"net,omitempty"`
}

// NetSample is the dmem transport's delivery-protocol activity for one
// step (or, summed, a whole run): every counter the link layer
// keeps, plus per-directed-link traffic sorted by (From, To), so a
// net-timeout flight dump shows which links were struggling.
type NetSample struct {
	// FramesSent counts transmissions that reached the wire, including
	// retransmissions and chaos-injected duplicates.
	FramesSent int64 `json:"frames_sent"`
	// FramesDelivered counts verified first deliveries (one per flow).
	FramesDelivered int64 `json:"frames_delivered,omitempty"`
	// FramesDropped counts transmissions lost to the link-fault schedule.
	FramesDropped int64 `json:"frames_dropped,omitempty"`
	// DupFrames counts duplicate deliveries discarded by the receiver.
	DupFrames int64 `json:"dup_frames,omitempty"`
	// CorruptRejects counts frames rejected by the payload checksum.
	CorruptRejects int64 `json:"corrupt_rejects,omitempty"`
	// Retries counts retransmissions (ack timeout or nack).
	Retries int64 `json:"retries,omitempty"`
	// Nacks counts checksum-reject re-request signals that reached the
	// sender.
	Nacks int64 `json:"nacks,omitempty"`
	// AcksDropped counts acknowledgements lost to the fault schedule.
	AcksDropped int64 `json:"acks_dropped,omitempty"`
	// Timeouts counts flows whose retry budget ran out with no copy
	// verified (degradation entries).
	Timeouts int64 `json:"timeouts,omitempty"`
	// Rerequests counts expansion payloads recovered over the reliable
	// re-request path after their retry budget ran out.
	Rerequests int64 `json:"rerequests,omitempty"`
	// DegradedGhostFlows counts ghost-body payloads recovered over the
	// reliable re-request path after their retry budget ran out.
	DegradedGhostFlows int64        `json:"degraded_ghost_flows,omitempty"`
	Links              []LinkSample `json:"links,omitempty"`
}

// LinkSample is one directed link's traffic. RTTNs is the mean modeled
// send-to-ack round trip over RTTCount acks that reached the sender (0
// when none).
type LinkSample struct {
	From     int   `json:"from"`
	To       int   `json:"to"`
	Frames   int64 `json:"frames"`
	Retries  int64 `json:"retries,omitempty"`
	RTTNs    int64 `json:"rtt_ns,omitempty"`
	RTTCount int64 `json:"rtt_count,omitempty"`
}

// PhaseNs sums the record's top-level phase spans (see SpanKind.TopLevel);
// comparing it against WallNs measures trace coverage.
func (r *StepRecord) PhaseNs() int64 {
	var sum int64
	for _, s := range r.Spans {
		if s.Kind.TopLevel() {
			sum += s.DurNs
		}
	}
	return sum
}

// Options configures a Recorder.
type Options struct {
	// JSONL, when non-nil, receives one JSON-encoded StepRecord per line
	// at every EndStep.
	JSONL io.Writer
	// Keep retains every finalized StepRecord in memory (required for
	// WriteChrome and for tests that inspect whole runs).
	Keep bool
	// Metrics, when non-nil, receives per-step aggregates at every
	// EndStep: step-wall and per-phase histograms, event/list/tree-edit
	// counters, worker-class busy time, task-graph schedule quality, and
	// per-device kernel samples. See docs/OBSERVABILITY.md for the name
	// catalog.
	Metrics *metrics.Registry
	// Flight, when non-nil, retains the last K finalized records and is
	// dumped to disk when a fault, a failed step, or a sentinel anomaly
	// appears in a step's events.
	Flight *FlightRecorder
	// Sentinel, when non-nil, enables the step-time regression sentinel
	// with the given knobs (zero fields select defaults).
	Sentinel *SentinelConfig
}

// Recorder collects one step at a time. All methods are safe for
// concurrent use (device kernels emit spans from pool goroutines) and all
// are no-ops on a nil receiver.
type Recorder struct {
	mu        sync.Mutex
	opts      Options
	origin    time.Time
	stepStart time.Time
	wallNs    int64 // the step's wall once StopWall ended it, else 0
	inStep    bool
	autoStep  int
	cur       StepRecord
	spanBuf   []Span
	eventBuf  []Event
	devBuf    []DeviceSample
	busyBuf   []int64
	classBuf  []int64
	kept      []StepRecord
	last      StepRecord
	hasLast   bool
	stepsDone int64
	err       error

	met         *stepMetrics
	flight      *FlightRecorder
	sentinel    *Sentinel
	pendingDump string // dump reason set in endStepLocked, flushed after unlock
}

// spanCap presizes the span buffer.
const spanCap = 256

// New creates a recorder.
func New(opts Options) *Recorder {
	r := &Recorder{
		opts:     opts,
		origin:   time.Now(),
		spanBuf:  make([]Span, 0, spanCap),
		eventBuf: make([]Event, 0, 32),
		flight:   opts.Flight,
	}
	if opts.Sentinel != nil {
		r.sentinel = NewSentinel(*opts.Sentinel)
	}
	if opts.Metrics != nil {
		r.met = newStepMetrics(opts.Metrics, r.flight)
	}
	return r
}

// Enabled reports whether the recorder is non-nil (for call sites that
// want to skip snapshot work entirely when telemetry is off).
func (r *Recorder) Enabled() bool { return r != nil }

// StartStep begins a new step record. If a step is already open it is
// finalized first, so a missing EndStep cannot corrupt the trace.
func (r *Recorder) StartStep(step int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.inStep {
		r.endStepLocked()
	}
	r.startStepLocked(step)
	r.unlockAndDump()
}

// unlockAndDump releases the recorder lock and then writes the flight dump
// the step just finalized asked for, if any: dump I/O must not block
// concurrent span emission. A written dump bumps
// afmm_flightrec_dumps_total.
func (r *Recorder) unlockAndDump() {
	reason := r.pendingDump
	r.pendingDump = ""
	r.mu.Unlock()
	if reason == "" {
		return
	}
	if path, err := r.flight.Dump(reason); err == nil && path != "" && r.met != nil {
		r.met.dumps.Inc()
	}
}

func (r *Recorder) startStepLocked(step int) {
	r.stepStart = time.Now()
	r.inStep = true
	r.autoStep = step + 1
	r.cur = StepRecord{
		Step:         step,
		StartNs:      r.stepStart.Sub(r.origin).Nanoseconds(),
		Spans:        r.spanBuf[:0],
		Events:       r.eventBuf[:0],
		Devices:      r.devBuf[:0],
		WorkerBusyNs: r.busyBuf[:0],
		ClassBusyNs:  r.classBuf[:0],
	}
}

// ensureStepLocked auto-opens a step for spans emitted outside an explicit
// StartStep/EndStep bracket (e.g. a bare Solve call under a recorder).
func (r *Recorder) ensureStepLocked() {
	if !r.inStep {
		r.startStepLocked(r.autoStep)
	}
}

// EndStep finalizes the current record: stamps the wall clock, writes the
// JSONL line, and retains the record (Keep) / the last-record snapshot.
func (r *Recorder) EndStep() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.inStep {
		r.endStepLocked()
	}
	r.unlockAndDump()
}

// StopWall ends the current step's wall clock: what the step does after
// it (a checkpoint of the finished step) still lands in its record, but
// outside its WallNs.
func (r *Recorder) StopWall() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.inStep {
		r.wallNs = time.Since(r.stepStart).Nanoseconds()
	}
	r.mu.Unlock()
}

func (r *Recorder) endStepLocked() {
	r.cur.WallNs = time.Since(r.stepStart).Nanoseconds()
	if r.wallNs > 0 {
		r.cur.WallNs, r.wallNs = r.wallNs, 0
	}
	r.cur.Compute = math.Max(r.cur.CPU, r.cur.GPU)
	r.cur.Total = r.cur.Compute + r.cur.LB + r.cur.Refill
	// The sentinel sees the finalized step before it is encoded anywhere,
	// so an EventAnomaly lands in the same record across every sink:
	// JSONL, the flight ring, the Chrome trace, and the /metrics counters.
	if r.sentinel != nil {
		for _, a := range r.sentinel.Observe(&r.cur) {
			r.cur.Events = append(r.cur.Events, Event{
				Kind: EventAnomaly,
				A:    int64(a.Kind),
				B:    int64(r.cur.Step),
				FA:   a.Observed.Seconds(),
				FB:   a.Baseline.Seconds(),
			})
		}
	}
	r.inStep = false
	r.stepsDone++
	// Recycle the buffers; deep-copy what outlives the step.
	r.spanBuf = r.cur.Spans[:0]
	r.eventBuf = r.cur.Events[:0]
	r.devBuf = r.cur.Devices[:0]
	r.busyBuf = r.cur.WorkerBusyNs[:0]
	r.classBuf = r.cur.ClassBusyNs[:0]
	if r.opts.JSONL != nil {
		b, err := json.Marshal(&r.cur)
		if err == nil {
			b = append(b, '\n')
			_, err = r.opts.JSONL.Write(b)
		}
		if err != nil && r.err == nil {
			r.err = err
		}
	}
	snap := r.cur
	snap.Spans = append([]Span(nil), r.cur.Spans...)
	snap.Events = append([]Event(nil), r.cur.Events...)
	snap.Devices = append([]DeviceSample(nil), r.cur.Devices...)
	snap.WorkerBusyNs = append([]int64(nil), r.cur.WorkerBusyNs...)
	snap.ClassBusyNs = append([]int64(nil), r.cur.ClassBusyNs...)
	if r.cur.Net != nil {
		n := *r.cur.Net
		n.Links = append([]LinkSample(nil), r.cur.Net.Links...)
		snap.Net = &n
	}
	r.last = snap
	r.hasLast = true
	if r.opts.Keep {
		r.kept = append(r.kept, snap)
	}
	r.flight.Add(snap)
	if r.met != nil {
		r.met.publish(&snap)
	}
	// Decide whether this step warrants a flight dump. The write itself
	// happens after the recorder lock is released (StartStep/EndStep),
	// since dump I/O must not block concurrent span emission.
	if r.flight != nil && r.pendingDump == "" {
		for _, ev := range snap.Events {
			switch ev.Kind {
			case EventFault, EventWatchdog, EventStepFail, EventAnomaly,
				EventNetTimeout:
				r.pendingDump = ev.Kind.String()
			}
			if r.pendingDump != "" {
				break
			}
		}
	}
}

// Token is an open span handle returned by Begin. The zero Token (and any
// Token from a nil recorder) is inert.
type Token struct {
	kind  SpanKind
	arg   int32
	start time.Time
}

// Begin opens a span. End closes it.
func (r *Recorder) Begin(kind SpanKind, arg int32) Token {
	if r == nil {
		return Token{}
	}
	return Token{kind: kind, arg: arg, start: time.Now()}
}

// End closes a span opened by Begin.
func (r *Recorder) End(t Token) {
	if r == nil || t.start.IsZero() {
		return
	}
	r.AddSpan(t.kind, t.arg, t.start, time.Since(t.start))
}

// AddSpan records a completed interval measured by the caller.
func (r *Recorder) AddSpan(kind SpanKind, arg int32, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ensureStepLocked()
	r.cur.Spans = append(r.cur.Spans, Span{
		Kind:    kind,
		Arg:     arg,
		StartNs: start.Sub(r.stepStart).Nanoseconds(),
		DurNs:   dur.Nanoseconds(),
	})
	r.mu.Unlock()
}

// EmitEvent records a balancer event.
func (r *Recorder) EmitEvent(kind EventKind, a, b int64, fa, fb float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ensureStepLocked()
	r.cur.Events = append(r.cur.Events, Event{Kind: kind, A: a, B: b, FA: fa, FB: fb})
	r.mu.Unlock()
}

// Update is the one write path into the step record: it opens a step if
// none is open and calls fn on the current record under the recorder
// lock. fn only assigns and must not call back into the recorder. Devices,
// WorkerBusyNs and ClassBusyNs start each step as recycled empty buffers:
// fn appends into them rather than storing a slice of its own. Compute
// and Total are derived when the step ends.
func (r *Recorder) Update(fn func(*StepRecord)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ensureStepLocked()
	fn(&r.cur)
	r.mu.Unlock()
}

// Last returns a copy of the most recently finalized record.
func (r *Recorder) Last() (StepRecord, bool) {
	if r == nil {
		return StepRecord{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last, r.hasLast
}

// Steps returns the retained records (Options.Keep).
func (r *Recorder) Steps() []StepRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.kept
}

// StepsDone returns the number of finalized steps.
func (r *Recorder) StepsDone() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stepsDone
}

// Metrics returns the registry the recorder publishes into (nil when
// Options.Metrics was not set). Safe on a nil recorder.
func (r *Recorder) Metrics() *metrics.Registry {
	if r == nil {
		return nil
	}
	return r.opts.Metrics
}

// Flight returns the recorder's flight recorder (nil when Options.Flight
// was not set). Safe on a nil recorder.
func (r *Recorder) Flight() *FlightRecorder {
	if r == nil {
		return nil
	}
	return r.flight
}

// Anomalies returns how many sentinel alarms the recorder has raised
// (zero when no sentinel is configured).
func (r *Recorder) Anomalies() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sentinel.Anomalies()
}

// Err returns the first sink write/encode error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
