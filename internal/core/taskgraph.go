package core

import (
	"time"

	"afmm/internal/dag"
	"afmm/internal/expansion"
	"afmm/internal/octree"
	"afmm/internal/sched"
	"afmm/internal/telemetry"
	"afmm/internal/vgpu"
)

// The step graph: the only way a solve executes, for every pool size and
// every phase subset. The whole step is one dependency graph (see
// internal/dag): up-sweep chunks feed exactly the down-sweep chunks that
// read them; near-field work is an independent root; the only near/far
// join is each leaf chunk's L2P — the single far-field write into the body
// accumulators. A one-worker pool drains the same graph, help-first; a
// solve that skips the far or the near field runs a graph without those
// nodes.

// taskTags maps the dag node categories onto telemetry span kinds; the
// milestone tag is negative so join nodes are never emitted as spans.
var taskTags = dag.Tags{
	Up:        int32(telemetry.SpanTaskUp),
	Down:      int32(telemetry.SpanTaskDown),
	L2P:       int32(telemetry.SpanTaskL2P),
	Near:      int32(telemetry.SpanTaskNear),
	Milestone: -1,
}

// graphResult carries what Solve needs from the graph region: the device
// time, per-phase durations (union of the phase's node spans: the wall
// time during which the phase was executing) and the region wall clock.
type graphResult struct {
	gpuTime             float64
	near, up, down, l2p time.Duration
	region              time.Duration
}

// TaskGraphStats returns the graph statistics of the most recent Solve:
// node/edge counts, ready-queue depth histogram, and the critical-path vs
// makespan gap.
func (s *Solver) TaskGraphStats() sched.GraphStats { return s.taskStats }

// reservedDrivers is the number of pool worker slots dedicated to the
// near-field class while the graph runs — the paper's "one core per GPU
// driver thread": one slot per simulated device (none on CPU-only
// configurations, where near and far share all slots), clamped so the far
// field keeps at least one.
func (s *Solver) reservedDrivers() int {
	if s.Cluster == nil {
		return 0
	}
	return min(len(s.Cluster.Devices), s.Cfg.Pool.Workers()-1)
}

// StepSpec describes the step graph of the solver's tree as computed by
// field f: chunk bounds from the solver's pool, chunk bodies calling f
// with workspaces from ws, leaves and near rows reading remote bodies from
// ghosts (nil: every body is local). The share is the whole tree; each
// dmem node narrows it to its body range over a private field.
func (s *Solver) StepSpec(f Field, ws Workspaces, ghosts []GhostLeaf) dag.Spec {
	spec := dag.Spec{Tree: s.Tree, Pool: s.Cfg.Pool, Tags: taskTags, Share: dag.Share{Hi: int32(s.Sys.Len())}}
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
	if !s.Cfg.SkipFarField {
		up := func(w *expansion.Workspace, ni int32) { f.Up(w, ni, ghosts) }
		spec.UpChunk, spec.DownChunk, spec.L2P = chunk(each(up)), chunk(f.Down), chunk(each(f.L2P))
	}
	if !s.Cfg.SkipNearField {
		sch := s.Tree.NearField()
		spec.NearChunk = func(lo, hi int) func() {
			return func() {
				for r := lo; r < hi; r++ {
					f.NearRow(sch, r, ghosts)
				}
			}
		}
	}
	return spec
}

// runGraph builds and runs the step graph over the resolved near-field
// schedule. The caller has already run BuildLists, accumulator and slab
// reset, M2L table preparation and (with a cluster) Partition.
func (s *Solver) runGraph() graphResult {
	rec := s.Cfg.Rec
	var out graphResult

	// Reserve driver slots before the build: the builder's chunk bounds
	// are reservation-aware, so they must see the final partition.
	if k := s.reservedDrivers(); k > 0 {
		s.Cfg.Pool.SetReserved(k)
		defer s.Cfg.Pool.SetReserved(0)
	}

	spec := s.StepSpec(s.Field, s.ws, nil)
	nearKind := telemetry.SpanNearCPU
	if s.Cluster != nil {
		nearKind = telemetry.SpanNearExec
		// A device cluster walks its chunks even under SkipNearField: the
		// timing model still runs.
		var fn vgpu.P2PFunc
		if !s.Cfg.SkipNearField {
			f := s.Field
			fn = func(sch *octree.NearSchedule, r int) { f.NearRow(sch, r, nil) }
		}
		spec.NearChunk = nil
		spec.NearSingle = func() {
			out.gpuTime = s.Cluster.ExecuteParallel(s.Tree, fn, s.Cfg.Pool)
		}
	}

	g := s.Cfg.Pool.NewGraph()
	dag.Build(spec, g)
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
	out.near = phase(taskTags.Near, nearKind)
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
