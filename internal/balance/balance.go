// Package balance implements the paper's dynamic load-balancing machinery:
// the three balancer states (Search, Incremental, Observation), the
// Enforce_S and FineGrainedOptimize enforcement mechanisms built on the
// Collapse/PushDown tree operations and the observed-coefficient time
// predictor, and the state-switching workflow of §VII.B.
package balance

import (
	"fmt"
	"math"
	"sort"

	"afmm/internal/octree"
	"afmm/internal/particle"
	"afmm/internal/sched"
	"afmm/internal/telemetry"
)

// Target is the solver surface the balancer drives. Both the gravity
// solver (core.Solver) and the Stokes solver implement it.
type Target interface {
	// S returns the current leaf-capacity parameter.
	S() int
	// Rebuild reconstructs the tree with a new S.
	Rebuild(newS int)
	// EnforceS restores the capacity invariant, returning the number of
	// collapse and pushdown operations performed.
	EnforceS() (collapses, pushdowns int)
	// Predict estimates CPU and GPU time for the current tree shape from
	// the observed coefficients, without solving.
	Predict() (cpu, gpu float64)
	// Octree exposes the decomposition for fine-grained modification.
	Octree() *octree.Tree
	// System exposes the bodies.
	System() *particle.System
	// Cores returns the virtual core count (for LB cost accounting).
	Cores() int
}

// StepTimes is the timing triple the balancer consumes (the paper's §VII.A
// definitions).
type StepTimes struct {
	CPU float64
	GPU float64
}

// Compute returns max(CPU, GPU).
func (t StepTimes) Compute() float64 { return math.Max(t.CPU, t.GPU) }

// State of the load balancer (§V).
type State int

// The balancer is always in exactly one of these states.
const (
	// Search performs a binary search for a good global S, rebuilding
	// the tree after every step (start of the simulation).
	Search State = iota
	// Incremental nudges the global S by small steps each time step.
	Incremental
	// Observation watches the compute time and intervenes only on
	// regressions (the steady state).
	Observation
	// Frozen performs no balancing at all (strategy 1 after its initial
	// search).
	Frozen
)

func (s State) String() string {
	switch s {
	case Search:
		return "search"
	case Incremental:
		return "incremental"
	case Observation:
		return "observation"
	case Frozen:
		return "frozen"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Strategy selects one of the three schemes compared in §IX.A.
type Strategy int

// The paper's three strategies.
const (
	// StrategyStatic finds an optimal S once, then never modifies S or
	// the tree again (strategy 1).
	StrategyStatic Strategy = iota
	// StrategyEnforce finds an optimal S once and calls Enforce_S
	// whenever the compute time regresses beyond the threshold
	// (strategy 2).
	StrategyEnforce
	// StrategyFull is the complete load-balancing scheme: all three
	// states plus Enforce_S and FineGrainedOptimize (strategy 3).
	StrategyFull
)

// The paper's fixed balancer constants.
const (
	// regressionFrac triggers intervention when the compute time exceeds
	// the best seen by this fraction (paper: 5%).
	regressionFrac = 0.05
	// switchFrac ends Search/Incremental when |CPU-GPU| is within this
	// fraction of the compute time. The paper uses an absolute 0.15 s on
	// ~1 s steps; the relative form keeps the behaviour at scaled-down
	// problem sizes.
	switchFrac = 0.15
	// incrementalFrac is the per-step relative S step in the incremental
	// state.
	incrementalFrac = 0.125
)

// Config tunes the balancer.
type Config struct {
	Strategy   Strategy
	MinS, MaxS int
	// FineGrainBatch is the number of nodes modified per
	// FineGrainedOptimize iteration (default: 1/64 of visible leaves,
	// minimum 4).
	FineGrainBatch int
	// MaxFineGrainIters bounds the optimize loop (default 12).
	MaxFineGrainIters int
	// DisableFineGrain turns FineGrainedOptimize off while keeping the
	// rest of the full workflow — the ablation compared in Figure 10.
	DisableFineGrain bool
	// Costs models the virtual time spent by balancing operations. Its
	// coefficients are constants; the field survives only because
	// benchmark/trace.go, which a non-benchmark change may not edit, calls
	// bal.Cfg.Costs.RefillCost, and the next benchmark change drops it.
	Costs LBCostModel
	// Rec, when non-nil, receives the balancer's typed event log (state
	// transitions, S changes, probes/nudges, regressions, enforcement) and
	// spans for rebuilds, Enforce_S, predictions, and fine-grained
	// optimization.
	Rec *telemetry.Recorder
}

func (c *Config) setDefaults(n int) {
	if c.MinS <= 0 {
		c.MinS = 4
	}
	if c.MaxS <= 0 {
		c.MaxS = n/2 + 8
	}
	if c.MaxFineGrainIters <= 0 {
		c.MaxFineGrainIters = 12
	}
}

// Balancer drives one solver across time steps.
type Balancer struct {
	Cfg   Config
	State State

	best     float64 // best compute time seen since last reset
	haveBest bool

	// binary search bookkeeping
	loS, hiS  int
	bestS     int
	bestSComp float64

	// incremental bookkeeping
	dir        int // +1: raise S (CPU-bound), -1: lower S
	prevDom    int // +1 CPU dominated, -1 GPU dominated
	searchDone bool

	// capacity bookkeeping (heterogeneous degradation; see CapacitySensor)
	capSeen  bool
	capEpoch int64
	capVal   float64
}

// New creates a balancer for a system of n bodies starting at S0.
func New(cfg Config, n int) *Balancer {
	cfg.setDefaults(n)
	return &Balancer{
		Cfg:   cfg,
		State: Search,
		loS:   cfg.MinS,
		hiS:   cfg.MaxS,
		bestS: -1,
	}
}

// Report describes what the balancer did after a step.
type Report struct {
	State     State
	LBTime    float64 // virtual seconds spent on balancing operations
	Rebuilt   bool
	NewS      int
	EnforcedS bool
	FineGrain bool
}

// rec returns the configured recorder (nil when telemetry is off; all
// recorder methods are nil-safe).
func (b *Balancer) rec() *telemetry.Recorder { return b.Cfg.Rec }

// setState transitions the state machine, logging actual changes.
func (b *Balancer) setState(to State) {
	if b.State != to {
		b.rec().EmitEvent(telemetry.EventState, int64(b.State), int64(to), 0, 0)
		b.State = to
	}
}

// rebuild is a tracked full tree rebuild to newS.
func (b *Balancer) rebuild(s Target, newS int) {
	old := s.S()
	rt := sched.StartTimer()
	s.Rebuild(newS)
	b.rec().AddSpan(telemetry.SpanTreeBuild, int32(newS), rt.StartTime(), rt.Elapsed())
	b.rec().EmitEvent(telemetry.EventRebuild, int64(newS), 0, 0, 0)
	if old != newS {
		b.rec().EmitEvent(telemetry.EventSChange, int64(old), int64(newS), 0, 0)
	}
}

// predict is a tracked s.Predict.
func (b *Balancer) predict(s Target) (cpu, gpu float64) {
	tok := b.rec().Begin(telemetry.SpanPredict, 0)
	cpu, gpu = s.Predict()
	b.rec().End(tok)
	return cpu, gpu
}

// enforce is a tracked s.EnforceS.
func (b *Balancer) enforce(s Target) (col, push int) {
	tok := b.rec().Begin(telemetry.SpanEnforceS, 0)
	col, push = s.EnforceS()
	b.rec().End(tok)
	b.rec().EmitEvent(telemetry.EventEnforceS, int64(col), int64(push), 0, 0)
	b.rec().Update(func(r *telemetry.StepRecord) { r.Collapses += col; r.Pushdowns += push })
	return col, push
}

// dominant returns +1 when the CPU dominates the step time, -1 otherwise.
func dominant(st StepTimes) int {
	if st.CPU >= st.GPU {
		return 1
	}
	return -1
}

func (b *Balancer) withinSwitch(st StepTimes) bool {
	gap := math.Abs(st.CPU - st.GPU)
	return gap <= switchFrac*math.Max(st.Compute(), 1e-300)
}

// AfterStep runs the balancing workflow of §VII.B after a completed solve
// (and after the integrator moved the bodies and Refill re-binned them).
// It mutates the solver's tree / S for the next step and returns what it
// did along with the virtual time charged for it. When the target also
// reports near-field capacity (CapacitySensor), a capacity epoch change —
// a device loss, derating, or restore — is folded in first: the balance
// point just moved for a reason no tree edit caused, so the full strategy
// re-enters Search over the surviving capacity before the normal state
// step runs.
func (b *Balancer) AfterStep(s Target, st StepTimes) Report {
	if cs, ok := s.(CapacitySensor); ok {
		b.noteCapacity(s, cs)
	}
	return b.stepFSM(s, st)
}

func (b *Balancer) stepFSM(s Target, st StepTimes) Report {
	switch b.State {
	case Frozen:
		return Report{State: Frozen, NewS: s.S()}
	case Search:
		return b.searchStep(s, st)
	case Incremental:
		return b.incrementalStep(s, st)
	default:
		return b.observationStep(s, st)
	}
}

// searchStep implements the binary-search state: pick the next S from how
// the previous rebuild shifted the CPU/GPU balance, rebuild, and exit to
// the incremental state once the times are close.
func (b *Balancer) searchStep(s Target, st StepTimes) Report {
	r := Report{State: Search}
	cur := s.S()
	if b.bestS < 0 || st.Compute() < b.bestSComp {
		b.bestS, b.bestSComp = cur, st.Compute()
	}
	if dominant(st) > 0 {
		// CPU-bound: move work toward the near field.
		if cur+1 > b.loS {
			b.loS = cur + 1
		}
	} else {
		if cur-1 < b.hiS {
			b.hiS = cur - 1
		}
	}
	if b.withinSwitch(st) || b.loS > b.hiS {
		// Settle on the best S seen and hand over to Incremental.
		b.setState(Incremental)
		b.prevDom = dominant(st)
		b.dir = b.prevDom
		if b.bestS != cur {
			r.LBTime += b.Cfg.Costs.rebuildCost(s)
			b.rebuild(s, b.bestS)
			r.Rebuilt = true
		}
		b.best = b.bestSComp
		b.haveBest = true
		r.NewS = s.S()
		if b.Cfg.Strategy == StrategyStatic {
			b.setState(Frozen)
		}
		if b.Cfg.Strategy == StrategyEnforce {
			b.setState(Observation)
		}
		return r
	}
	next := geomMid(b.loS, b.hiS)
	b.rec().EmitEvent(telemetry.EventSearchProbe, int64(next), 0, 0, 0)
	r.LBTime += b.Cfg.Costs.rebuildCost(s)
	b.rebuild(s, next)
	r.Rebuilt = true
	r.NewS = next
	return r
}

// incrementalStep nudges S toward the balance point, one rebuild per step,
// until the dominant computational unit flips (§V.B, §VII.B).
func (b *Balancer) incrementalStep(s Target, st StepTimes) Report {
	r := Report{State: Incremental}
	cur := s.S()
	dom := dominant(st)
	if b.haveBest && st.Compute() < b.best {
		b.best = st.Compute()
	}
	if dom != b.prevDom {
		// Transitional S found.
		b.rec().EmitEvent(telemetry.EventDomFlip, int64(b.prevDom), int64(dom), 0, 0)
		if !b.withinSwitch(st) && !b.Cfg.DisableFineGrain {
			r.LBTime += b.fineGrainedOptimize(s, &r)
			r.FineGrain = true
		}
		b.setState(Observation)
		b.best = st.Compute()
		b.haveBest = true
		r.NewS = s.S()
		return r
	}
	b.prevDom = dom
	step := int(math.Max(1, float64(cur)*incrementalFrac))
	next := cur + dom*step
	if next < b.Cfg.MinS {
		next = b.Cfg.MinS
	}
	if next > b.Cfg.MaxS {
		next = b.Cfg.MaxS
	}
	if next != cur {
		b.rec().EmitEvent(telemetry.EventNudge, int64(cur), int64(next), 0, 0)
		r.LBTime += b.Cfg.Costs.rebuildCost(s)
		b.rebuild(s, next)
		r.Rebuilt = true
	}
	r.NewS = next
	return r
}

// observationStep watches for regressions and applies the enforcement
// mechanisms (§VI, §VII.B).
func (b *Balancer) observationStep(s Target, st StepTimes) Report {
	r := Report{State: Observation, NewS: s.S()}
	if !b.haveBest {
		b.best = st.Compute()
		b.haveBest = true
		return r
	}
	if st.Compute() <= b.best*(1+regressionFrac) {
		if st.Compute() < b.best {
			b.best = st.Compute()
		}
		return r
	}
	// Regression: first line of defense is Enforce_S.
	b.rec().EmitEvent(telemetry.EventRegression, 0, 0, st.Compute(), b.best)
	col, push := b.enforce(s)
	r.EnforcedS = true
	r.LBTime += b.Cfg.Costs.enforceCost(s, col, push)
	if b.Cfg.Strategy == StrategyEnforce {
		// Strategy 2: the next step's compute time becomes the new best.
		b.haveBest = false
		return r
	}
	threshold := b.best * (1 + regressionFrac)
	cpu, gpu := b.predict(s)
	r.LBTime += b.Cfg.Costs.predictCost(s)
	pred := math.Max(cpu, gpu)
	b.rec().EmitEvent(telemetry.EventPrediction, 0, 0, pred, threshold)
	b.rec().Update(func(r *telemetry.StepRecord) { r.PredCPU, r.PredGPU = cpu, gpu })
	if pred <= threshold {
		b.best = math.Min(b.best, pred)
		return r
	}
	if !b.Cfg.DisableFineGrain {
		r.LBTime += b.fineGrainedOptimize(s, &r)
		r.FineGrain = true
		cpu, gpu = b.predict(s)
		r.LBTime += b.Cfg.Costs.predictCost(s)
		pred = math.Max(cpu, gpu)
		b.rec().EmitEvent(telemetry.EventPrediction, 0, 0, pred, threshold)
		b.rec().Update(func(r *telemetry.StepRecord) { r.PredCPU, r.PredGPU = cpu, gpu })
	}
	if pred > threshold {
		// Fine-grained adjustment failed: fall back to incremental on
		// the next step.
		b.setState(Incremental)
		b.prevDom = 0 // force at least one incremental move before flip detection
		if cpu >= gpu {
			b.prevDom = 1
		} else {
			b.prevDom = -1
		}
	}
	return r
}

// fineGrainedOptimize applies batches of Collapse or PushDown operations,
// keeping each batch only if the predicted compute time improves (§VI.B).
// It returns the virtual LB time spent.
func (b *Balancer) fineGrainedOptimize(s Target, r *Report) float64 {
	tok := b.rec().Begin(telemetry.SpanFineGrain, 0)
	defer b.rec().End(tok)
	var lb float64
	cpu, gpu := b.predict(s)
	lb += b.Cfg.Costs.predictCost(s)
	bestPred := math.Max(cpu, gpu)
	for iter := 0; iter < b.Cfg.MaxFineGrainIters; iter++ {
		var batch []int32
		if cpu > gpu {
			batch = collapseCandidates(s.Octree(), b.batchSize(s))
			for _, ni := range batch {
				s.Octree().Collapse(ni)
			}
		} else {
			batch = pushdownCandidates(s.Octree(), b.batchSize(s))
			for _, ni := range batch {
				s.Octree().PushDown(ni)
			}
		}
		if len(batch) == 0 {
			break
		}
		lb += b.Cfg.Costs.modifyCost(s, batch)
		nc, ng := b.predict(s)
		lb += b.Cfg.Costs.predictCost(s)
		pred := math.Max(nc, ng)
		if pred >= bestPred {
			// Revert the batch and stop: the operations are exact
			// inverses of each other.
			if cpu > gpu {
				for _, ni := range batch {
					s.Octree().PushDown(ni)
				}
			} else {
				for _, ni := range batch {
					s.Octree().Collapse(ni)
				}
			}
			lb += b.Cfg.Costs.modifyCost(s, batch)
			break
		}
		bestPred = pred
		b.rec().EmitEvent(telemetry.EventFineGrain, int64(len(batch)), 0, pred, 0)
		b.rec().Update(func(r *telemetry.StepRecord) {
			if cpu > gpu {
				r.Collapses += len(batch)
			} else {
				r.Pushdowns += len(batch)
			}
		})
		cpu, gpu = nc, ng
	}
	return lb
}

func (b *Balancer) batchSize(s Target) int {
	if b.Cfg.FineGrainBatch > 0 {
		return b.Cfg.FineGrainBatch
	}
	n := s.Octree().ComputeStats().VisibleLeaves / 64
	if n < 4 {
		n = 4
	}
	return n
}

// scored pairs a node with its selection key for candidate ranking.
type scored struct {
	ni    int32
	count int
}

// collapseCandidates returns up to k visible twigs (internal nodes whose
// children are all visible leaves), lightest first — collapsing them
// removes far-field work for the least near-field increase.
func collapseCandidates(t *octree.Tree, k int) []int32 {
	var cands []scored
	t.WalkVisible(func(ni int32) {
		n := &t.Nodes[ni]
		if n.IsVisibleLeaf() {
			return
		}
		for _, ci := range n.Children {
			if ci == octree.NilNode || !t.Nodes[ci].IsVisibleLeaf() {
				return
			}
		}
		cands = append(cands, scored{ni, n.Count()})
	})
	sortScored(cands)
	out := make([]int32, 0, k)
	for _, c := range cands {
		if len(out) >= k {
			break
		}
		out = append(out, c.ni)
	}
	return out
}

// pushdownCandidates returns up to k visible leaves, heaviest first —
// splitting them removes the most near-field work.
func pushdownCandidates(t *octree.Tree, k int) []int32 {
	var cands []scored
	t.WalkVisible(func(ni int32) {
		n := &t.Nodes[ni]
		if n.IsVisibleLeaf() && n.Count() > 1 && int(n.Level) < t.Cfg.MaxDepth {
			cands = append(cands, scored{ni, -n.Count()})
		}
	})
	sortScored(cands)
	out := make([]int32, 0, k)
	for _, c := range cands {
		if len(out) >= k {
			break
		}
		out = append(out, c.ni)
	}
	return out
}

func sortScored(c []scored) {
	sort.Slice(c, func(i, j int) bool { return c[i].count < c[j].count })
}

// geomMid returns the geometric midpoint of [lo, hi], the natural probe
// for a scale parameter spanning decades.
func geomMid(lo, hi int) int {
	m := int(math.Round(math.Sqrt(float64(lo) * float64(hi))))
	if m < lo {
		m = lo
	}
	if m > hi {
		m = hi
	}
	return m
}
