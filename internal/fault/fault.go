// Package fault provides a deterministic, schedule-driven fault injector
// for the simulated GPU cluster. Faults are declared up front as a
// Schedule — either parsed from a compact spec string
// ("gpu1:failstop@step12,gpu0:straggle2.5@step20") or drawn from a
// seeded RNG — and an Injector replays that schedule as the cluster
// executes, so a faulty run is exactly reproducible: same spec, same
// seed, same fault at the same chunk of the same step.
//
// The injector is consulted by vgpu.Device.run once per chunk of the
// near-field schedule, *before* the walk charges the chunk's rows. Fault
// semantics are chosen so that recovery can stay bit-identical to the
// fault-free run:
//
//   - FailStop: the device dies at the chunk boundary; rows from that
//     chunk on are never charged to the device, and the host fallback
//     is charged for them instead.
//   - Hang: the device goes silent at the chunk boundary; the walk
//     declares it hung there and treats it like a fail-stop at the same
//     boundary.
//   - Transient: the chunk "errors" before executing; the caller
//     retries at once and the chunk runs exactly once on success, so
//     no work is duplicated or reordered.
//   - Straggle: the device's virtual execution rate is divided by
//     Factor; numeric work is untouched, only timing changes.
//   - Corrupt: the chunk executes normally and then the first target
//     accumulator is poisoned with NaN — the payload for the
//     post-solve invariant guard (Config.Validate), not a timing
//     fault.
//
// Steps are execution indices: the n-th Execute/ExecuteParallel call
// on the cluster (counted from 0) is step n. In a plain simulation
// loop this coincides with the simulation step; harnesses that issue
// warm-up solves must account for them.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	None Kind = iota
	// FailStop kills the device at a chunk boundary.
	FailStop
	// Hang silences the device at a chunk boundary; the walk declares
	// it hung there.
	Hang
	// Transient fails individual chunk attempts Count times, then
	// succeeds.
	Transient
	// Straggle divides the device's virtual rate by Factor from the
	// given step on (Factor 1 restores full speed).
	Straggle
	// Corrupt lets the chunk execute and then poisons its first
	// target accumulator with NaN.
	Corrupt
)

var kindNames = [...]string{"none", "failstop", "hang", "transient", "straggle", "corrupt"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one scheduled fault on one device.
type Event struct {
	Device int     // target device ID
	Kind   Kind    //
	Step   int     // execution step at which the fault arms
	Chunk  int     // chunk index at which FailStop/Hang/Corrupt fire (0 = first)
	Factor float64 // Straggle slowdown multiplier (1 restores full speed)
	Count  int     // Transient: failed attempts per chunk before success (>=1)
}

// String renders the event in the spec grammar accepted by Parse.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "gpu%d:", e.Device)
	switch e.Kind {
	case Straggle:
		fmt.Fprintf(&b, "straggle%g", e.Factor)
	case Transient:
		if e.Count > 1 {
			fmt.Fprintf(&b, "transient%d", e.Count)
		} else {
			b.WriteString("transient")
		}
	default:
		b.WriteString(e.Kind.String())
	}
	fmt.Fprintf(&b, "@step%d", e.Step)
	if e.Chunk > 0 && (e.Kind == FailStop || e.Kind == Hang || e.Kind == Corrupt) {
		fmt.Fprintf(&b, "#%d", e.Chunk)
	}
	return b.String()
}

// Schedule is an ordered set of fault events. The zero value is an
// empty (fault-free) schedule.
type Schedule struct {
	Events []Event
}

// String renders the schedule in the spec grammar accepted by Parse.
func (s *Schedule) String() string {
	if s == nil || len(s.Events) == 0 {
		return ""
	}
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// Parse builds a Schedule from a comma-separated spec. Each entry is
//
//	gpu<D>:<fault>@step<S>[#<chunk>]
//
// where <fault> is one of
//
//	failstop            — die at the chunk boundary
//	hang                — go silent at the chunk boundary
//	straggle<F>         — divide the virtual rate by F (e.g. straggle2.5)
//	transient[<C>]      — each chunk attempt fails C times (default 1)
//	corrupt             — poison the chunk's first target with NaN
//
// The optional #<chunk> suffix (failstop/hang/corrupt only) selects the
// chunk index within the step at which the fault fires; it defaults to
// chunk 0. A chunk index past the device's last chunk of that step
// fires at chunk 0 of the device's next walk. An empty spec yields an
// empty schedule.
func Parse(spec string) (*Schedule, error) {
	sch := &Schedule{}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return sch, nil
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		ev, err := parseEntry(entry)
		if err != nil {
			return nil, fmt.Errorf("fault spec %q: %w", entry, err)
		}
		sch.Events = append(sch.Events, ev)
	}
	return sch, nil
}

// NodeEvent is a node-level cluster fault: virtual cluster node Node
// fail-stops at the start of step Step — the distributed analogue of a
// device Event. Only fail-stop is meaningful at node granularity: to its
// peers a hung node is indistinguishable from a dead one (both stop
// acknowledging), so every node-loss mode collapses to "dead at a step
// boundary, detected by timeout, range repartitioned over survivors".
type NodeEvent struct {
	Node int
	Step int
}

// String renders the event in the spec grammar.
func (e NodeEvent) String() string {
	return fmt.Sprintf("node%d:failstop@step%d", e.Node, e.Step)
}

// ParseNodeEvents builds a node-fault schedule from a comma-separated
// spec. Each entry is
//
//	node<K>:failstop@step<S>
//
// An empty spec yields an empty schedule. Events are returned sorted by
// step (then node), so replay order is deterministic regardless of the
// spec's entry order.
func ParseNodeEvents(spec string) ([]NodeEvent, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []NodeEvent
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		devPart, rest, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("node fault spec %q: missing ':' between node and fault", entry)
		}
		nodeStr := strings.TrimPrefix(devPart, "node")
		node, err := strconv.Atoi(nodeStr)
		if err != nil || node < 0 || nodeStr == devPart {
			return nil, fmt.Errorf("node fault spec %q: bad node %q (want node<K>)", entry, devPart)
		}
		kindPart, atPart, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("node fault spec %q: missing '@step<N>'", entry)
		}
		if kindPart != "failstop" {
			return nil, fmt.Errorf("node fault spec %q: unknown node fault %q (only failstop)", entry, kindPart)
		}
		stepStr := strings.TrimPrefix(atPart, "step")
		step, err := strconv.Atoi(stepStr)
		if err != nil || step < 0 || stepStr == atPart {
			return nil, fmt.Errorf("node fault spec %q: bad step %q (want @step<N>)", entry, atPart)
		}
		out = append(out, NodeEvent{Node: node, Step: step})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Step != out[j].Step {
			return out[i].Step < out[j].Step
		}
		return out[i].Node < out[j].Node
	})
	return out, nil
}

func parseEntry(entry string) (Event, error) {
	ev := Event{Factor: 1, Count: 1}
	devPart, rest, ok := strings.Cut(entry, ":")
	if !ok {
		return ev, fmt.Errorf("missing ':' between device and fault")
	}
	devStr := strings.TrimPrefix(devPart, "gpu")
	dev, err := strconv.Atoi(devStr)
	if err != nil || dev < 0 {
		return ev, fmt.Errorf("bad device %q (want gpu<N>)", devPart)
	}
	ev.Device = dev

	kindPart, atPart, ok := strings.Cut(rest, "@")
	if !ok {
		return ev, fmt.Errorf("missing '@step<N>'")
	}
	switch {
	case kindPart == "failstop":
		ev.Kind = FailStop
	case kindPart == "hang":
		ev.Kind = Hang
	case kindPart == "corrupt":
		ev.Kind = Corrupt
	case strings.HasPrefix(kindPart, "straggle"):
		ev.Kind = Straggle
		fs := strings.TrimPrefix(kindPart, "straggle")
		if fs == "" {
			return ev, fmt.Errorf("straggle needs a factor (e.g. straggle2.5)")
		}
		f, err := strconv.ParseFloat(fs, 64)
		if err != nil || f <= 0 {
			return ev, fmt.Errorf("bad straggle factor %q", fs)
		}
		ev.Factor = f
	case strings.HasPrefix(kindPart, "transient"):
		ev.Kind = Transient
		cs := strings.TrimPrefix(kindPart, "transient")
		if cs != "" {
			c, err := strconv.Atoi(cs)
			if err != nil || c < 1 {
				return ev, fmt.Errorf("bad transient count %q", cs)
			}
			ev.Count = c
		}
	default:
		return ev, fmt.Errorf("unknown fault %q", kindPart)
	}

	stepStr, chunkStr, hasChunk := strings.Cut(atPart, "#")
	stepStr = strings.TrimPrefix(stepStr, "step")
	step, err := strconv.Atoi(stepStr)
	if err != nil || step < 0 {
		return ev, fmt.Errorf("bad step %q (want @step<N>)", atPart)
	}
	ev.Step = step
	if hasChunk {
		if ev.Kind != FailStop && ev.Kind != Hang && ev.Kind != Corrupt {
			return ev, fmt.Errorf("#chunk only applies to failstop/hang/corrupt")
		}
		c, err := strconv.Atoi(chunkStr)
		if err != nil || c < 0 {
			return ev, fmt.Errorf("bad chunk %q", chunkStr)
		}
		ev.Chunk = c
	}
	return ev, nil
}

// Random draws n fault events over the given device and step ranges
// from a seeded RNG. The same (seed, devices, steps, n) always yields
// the same schedule. Straggle factors are drawn in [1.5, 4), transient
// counts in [1, 3]. Steps are drawn from [steps/4, steps) so faults
// land after typical warm-up/search phases.
func Random(seed int64, devices, steps, n int) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	sch := &Schedule{}
	if devices <= 0 || steps <= 0 {
		return sch
	}
	kinds := [...]Kind{FailStop, Hang, Transient, Straggle}
	lo := steps / 4
	for i := 0; i < n; i++ {
		ev := Event{
			Device: rng.Intn(devices),
			Kind:   kinds[rng.Intn(len(kinds))],
			Step:   lo + rng.Intn(steps-lo),
			Factor: 1,
			Count:  1,
		}
		switch ev.Kind {
		case Straggle:
			ev.Factor = 1.5 + 2.5*rng.Float64()
		case Transient:
			ev.Count = 1 + rng.Intn(3)
		case FailStop, Hang:
			ev.Chunk = rng.Intn(4)
		}
		sch.Events = append(sch.Events, ev)
	}
	sort.SliceStable(sch.Events, func(i, j int) bool { return sch.Events[i].Step < sch.Events[j].Step })
	return sch
}

// Outcome is the injector's verdict for one chunk attempt.
type Outcome struct {
	Kind Kind
}

// Injector replays a Schedule against a live execution. All methods
// are safe for concurrent use and nil-safe: a nil *Injector injects
// nothing.
type Injector struct {
	mu    sync.Mutex
	sched Schedule
	step  int
	// straggle holds the currently active slowdown factor per device
	// (events persist: a straggle armed at step 12 derates the device
	// until another straggle event replaces the factor).
	straggle map[int]float64
	// fired marks one-shot events (failstop/hang/corrupt) already
	// delivered, by index into sched.Events.
	fired map[int]bool
	// budget holds remaining transient failures per (device, chunk)
	// for the current step.
	budget map[[2]int]int
	// fires counts delivered verdicts by kind.
	fires [len(kindNames)]int64
}

// NewInjector builds an injector over sch. A nil or empty schedule
// yields an injector that never fires (callers may also simply keep a
// nil *Injector).
func NewInjector(sch *Schedule) *Injector {
	in := &Injector{
		straggle: make(map[int]float64),
		fired:    make(map[int]bool),
		budget:   make(map[[2]int]int),
	}
	if sch != nil {
		in.sched.Events = append(in.sched.Events, sch.Events...)
	}
	return in
}

// BeginStep arms the injector for execution step `step`: straggle
// events at or before this step become the device's active factor, and
// transient budgets reset. The cluster calls this once per Execute.
func (in *Injector) BeginStep(step int) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.step = step
	for k := range in.budget {
		delete(in.budget, k)
	}
	for _, ev := range in.sched.Events {
		if ev.Kind == Straggle && ev.Step <= step {
			in.straggle[ev.Device] = ev.Factor
		}
	}
}

// Step reports the execution step the injector is currently armed for.
func (in *Injector) Step() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.step
}

// StraggleFactor reports the active slowdown multiplier for a device
// (1 when the device runs at full speed).
func (in *Injector) StraggleFactor(dev int) float64 {
	if in == nil {
		return 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if f, ok := in.straggle[dev]; ok && f > 0 {
		return f
	}
	return 1
}

// Probe reports the verdict a diagnostic attempt on the device would
// receive at the currently armed step, without consuming any injector
// state: one-shot faults stay armed and transient budgets are untouched.
// The cluster watchdog probes dead devices with this each step to decide
// restoration (vgpu.WatchdogConfig.RestoreAfter) — a pending one-shot
// fault or an active transient means the device is still unhealthy.
func (in *Injector) Probe(dev int) Kind {
	if in == nil {
		return None
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, kind := range [...]Kind{FailStop, Hang, Corrupt} {
		for i, ev := range in.sched.Events {
			if ev.Kind != kind || ev.Device != dev || in.fired[i] {
				continue
			}
			if in.step >= ev.Step {
				return kind
			}
		}
	}
	for _, ev := range in.sched.Events {
		if ev.Kind == Transient && ev.Device == dev && ev.Step == in.step {
			return Transient
		}
	}
	return None
}

// FiredCount reports how many verdicts of the given kind the injector
// has delivered. Nil-safe.
func (in *Injector) FiredCount(k Kind) int64 {
	if in == nil || int(k) >= len(kindNames) {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fires[k]
}

// Chunk delivers the injector's verdict for one attempt at chunk
// `chunk` on device `dev` during the current step. Fail-stop and hang
// dominate; a transient verdict consumes one unit of the chunk's
// failure budget, so retrying the same chunk eventually succeeds.
func (in *Injector) Chunk(dev, chunk int) Outcome {
	if in == nil {
		return Outcome{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	// One-shot faults: first match wins, in severity order.
	for _, kind := range [...]Kind{FailStop, Hang, Corrupt} {
		for i, ev := range in.sched.Events {
			if ev.Kind != kind || ev.Device != dev || in.fired[i] {
				continue
			}
			// Fire when execution reaches (or has passed) the armed
			// step and chunk. A fault armed at a chunk index its step
			// never reaches therefore fires at chunk 0 of the device's
			// next walk, one step late.
			if in.step > ev.Step || (in.step == ev.Step && chunk >= ev.Chunk) {
				in.fired[i] = true
				in.fires[kind]++
				return Outcome{Kind: kind}
			}
		}
	}
	for _, ev := range in.sched.Events {
		if ev.Kind == Transient && ev.Device == dev && ev.Step == in.step {
			key := [2]int{dev, chunk}
			if _, seen := in.budget[key]; !seen {
				in.budget[key] = ev.Count
			}
			if in.budget[key] > 0 {
				in.budget[key]--
				in.fires[Transient]++
				return Outcome{Kind: Transient}
			}
		}
	}
	return Outcome{}
}
