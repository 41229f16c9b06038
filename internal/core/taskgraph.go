package core

import (
	"time"

	"afmm/internal/dag"
	"afmm/internal/expansion"
	"afmm/internal/sched"
	"afmm/internal/telemetry"
)

// The step graph: the only way a solve computes, for every pool size and
// device count. The whole step is one dependency graph
// (see internal/dag): up-sweep chunks feed exactly the down-sweep chunks
// that read them; the near-field row chunks are independent roots; the
// only near/far join is each leaf chunk's L2P — the single far-field write
// into the body accumulators. A one-worker pool drains the same graph,
// help-first; a dry run builds no graph. Simulated devices add nothing to
// the graph: their clock walks the same rows after it (Solve).

// taskTags maps the dag node categories onto telemetry span kinds; the
// milestone tag is negative so join nodes are never emitted as spans.
var taskTags = dag.Tags{
	Up:        int32(telemetry.SpanTaskUp),
	Down:      int32(telemetry.SpanTaskDown),
	L2P:       int32(telemetry.SpanTaskL2P),
	Near:      int32(telemetry.SpanTaskNear),
	Milestone: -1,
}

// graphResult carries what Solve needs from the graph region: per-phase
// durations (union of the phase's node spans: the wall time during which
// the phase was executing) and the region wall clock.
type graphResult struct {
	near, up, down, l2p time.Duration
	region              time.Duration
}

// TaskGraphStats returns the statistics of the most recent step graph:
// node/edge counts, ready-queue depth histogram, and the critical-path vs
// makespan gap.
func (s *Solver) TaskGraphStats() sched.GraphStats { return s.taskStats }

// StepSpec describes the step graph of the solver's tree as computed by
// field f: chunk bounds from the solver's pool, chunk bodies calling f
// with workspaces from ws, leaves and near rows reading remote bodies from
// ghosts (nil: every body is local). The share is the whole tree; each
// dmem node narrows it to its body range over a private field.
func (s *Solver) StepSpec(f Field, ws Workspaces, ghosts []GhostLeaf) dag.Spec {
	// chunk is a graph node body applying op to the run nodes with one
	// workspace. Up and L2P go cell by cell (each); Down takes the whole
	// run, so a down chunk's M2L pairs are batched by theta together.
	chunk := func(op func(w *expansion.Workspace, nodes []int32)) func(nodes []int32) func() {
		return func(nodes []int32) func() {
			return func() {
				w := ws.Get()
				op(w, nodes)
				ws.Put(w)
			}
		}
	}
	each := func(op func(w *expansion.Workspace, ni int32)) func(w *expansion.Workspace, nodes []int32) {
		return func(w *expansion.Workspace, nodes []int32) {
			for _, ni := range nodes {
				op(w, ni)
			}
		}
	}
	sch := s.Tree.NearField()
	up := func(w *expansion.Workspace, ni int32) { f.Up(w, ni, ghosts) }
	// A leaf's node folds its reactions in, then evaluates its locals.
	l2p := func(w *expansion.Workspace, ni int32) {
		f.Fold(sch, ni)
		f.L2P(w, ni)
	}
	return dag.Spec{
		Tree: s.Tree, Pool: s.Cfg.Pool, Tags: taskTags, Share: dag.Share{Hi: int32(s.Sys.Len())},
		UpChunk: chunk(each(up)), DownChunk: chunk(f.Down), L2P: chunk(each(l2p)),
		NearChunk: func(c int, lo, hi int32) func() {
			return func() { f.Near(sch, c, lo, hi, ghosts) }
		},
	}
}

// runGraph builds and runs the step graph over the resolved near-field
// schedule. The caller has already run BuildLists, accumulator and slab
// reset and M2L table preparation.
func (s *Solver) runGraph() graphResult {
	rec := s.Cfg.Rec
	var out graphResult

	g := s.Cfg.Pool.NewGraph()
	dag.Build(s.StepSpec(s.Field, s.ws, nil), g)
	g.SetTrace(true)
	regionTimer := sched.StartTimer()
	if err := g.Run(); err != nil {
		// The builder only emits child->parent, parent->child and
		// up->down edges — a cycle is a builder bug, not a data condition.
		panic(err)
	}
	out.region = regionTimer.Elapsed()
	stats := g.Stats()
	s.taskStats = stats

	// One top-level span per phase, under the kinds the sentinel, the
	// per-phase histograms and StepRecord.PhaseNs read: start = the
	// phase's first node, duration = the union of its node spans.
	phase := func(tag int32, kind telemetry.SpanKind) time.Duration {
		startNs, union := sched.SpanUnion(stats.Spans, tag)
		if union > 0 {
			rec.AddSpan(kind, 0, stats.Start.Add(time.Duration(startNs)), union)
		}
		return union
	}
	out.near = phase(taskTags.Near, telemetry.SpanNearCPU)
	out.up = phase(taskTags.Up, telemetry.SpanUpSweep)
	out.down = phase(taskTags.Down, telemetry.SpanDownSweep)
	out.l2p = phase(taskTags.L2P, telemetry.SpanL2P)
	if rec.Enabled() {
		for _, sp := range stats.Spans {
			if sp.Tag < 0 || sp.DurNs <= 0 {
				continue // milestones and cancelled nodes
			}
			rec.AddSpan(telemetry.SpanKind(sp.Tag), sp.Arg,
				stats.Start.Add(time.Duration(sp.StartNs)),
				time.Duration(sp.DurNs))
		}
		rec.Update(func(r *telemetry.StepRecord) {
			r.TaskNodes, r.TaskEdges, r.TaskMaxReady = stats.Nodes, stats.Edges, stats.MaxReady
			r.TaskCriticalNs, r.TaskMakespanNs = stats.CriticalPathNs, stats.MakespanNs
		})
	}
	return out
}
