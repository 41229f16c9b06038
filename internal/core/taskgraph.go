package core

import (
	"time"

	"afmm/internal/dag"
	"afmm/internal/sched"
	"afmm/internal/telemetry"
	"afmm/internal/vgpu"
)

// Task-graph solve path: the whole step as one dependency graph (see
// internal/dag) instead of the fork-join phase barriers. Up-sweep chunks
// feed exactly the down-sweep chunks that read them; near-field work is
// an independent root; the only near/far join is each leaf chunk's L2P —
// the single far-field write into the body accumulators. Results are
// bit-identical to the level-synchronous sweeps (same chunk bodies, same
// per-node operation order, one L2P addition per body).

// taskTags maps the dag node categories onto telemetry span kinds; the
// milestone tag is negative so join nodes are never emitted as spans.
var taskTags = dag.Tags{
	Up:        int32(telemetry.SpanTaskUp),
	Down:      int32(telemetry.SpanTaskDown),
	L2P:       int32(telemetry.SpanTaskL2P),
	Near:      int32(telemetry.SpanTaskNear),
	Milestone: -1,
}

// taskGraphResult carries what Solve needs from the graph region: the
// device time, per-phase durations (union of the phase's node spans, the
// closest analogue of the fork-join phase walls), the region wall clock,
// and the graph statistics for telemetry/benchmarks.
type taskGraphResult struct {
	gpuTime             float64
	near, up, down, l2p time.Duration
	region              time.Duration
	stats               sched.GraphStats
}

// taskGraphEligible reports whether this Solve runs the dependency-driven
// path: opted in, level-synchronous chunk bodies available, a far field
// present, and a pool that can actually exploit the removed barriers (a
// single worker would only time-slice the ready queues).
func (s *Solver) taskGraphEligible() bool {
	if !s.Cfg.TaskGraph {
		return false
	}
	if s.Cfg.SweepMode != SweepLevelSync || s.Cfg.SkipFarField {
		return false
	}
	return s.Cfg.Pool.Workers() >= 2
}

// TaskGraphStats returns the graph statistics of the most recent
// task-graph Solve: node/edge counts, ready-queue depth histogram, and
// the critical-path vs makespan gap. The zero value is returned while no
// solve has taken the task-graph path.
func (s *Solver) TaskGraphStats() sched.GraphStats { return s.taskStats }

// solveTaskGraph builds and runs the step DAG. The caller has already
// run BuildLists, accumulator reset, slab sizing, M2L table preparation,
// the precision gate, and (with a cluster) Partition.
func (s *Solver) solveTaskGraph() taskGraphResult {
	t := s.Tree
	rec := s.Cfg.Rec
	var out taskGraphResult

	// Reserve driver slots before the build: the builder's chunk bounds
	// are reservation-aware, so they must see the final partition.
	if k := s.reservedDrivers(); k > 0 {
		s.Cfg.Pool.SetReserved(k)
		defer s.Cfg.Pool.SetReserved(0)
	}

	spec := dag.Spec{
		Tree:       t,
		Pool:       s.Cfg.Pool,
		UpWeight:   s.upWeight,
		DownWeight: s.downWeight,
		UpChunk: func(_ int, nodes []int32) func() {
			return func() {
				w := s.getWS()
				for _, ni := range nodes {
					s.upNode(w, ni)
				}
				s.putWS(w)
			}
		},
		DownChunk: func(_ int, nodes []int32) func() {
			return func() {
				w := s.getWS()
				for _, ni := range nodes {
					s.downNode(w, ni, false)
				}
				s.putWS(w)
			}
		},
		L2P: func(leaves []int32) func() {
			return func() {
				w := s.getWS()
				for _, ni := range leaves {
					s.leafL2P(w, ni)
				}
				s.putWS(w)
			}
		},
		Tags: taskTags,
	}
	if s.Cluster != nil {
		fn := vgpu.P2PFunc(s.p2pPair)
		if s.Cfg.SkipNearField {
			fn = nil
		}
		spec.NearSingle = func() {
			out.gpuTime = s.Cluster.ExecuteParallel(t, fn, s.Cfg.Pool)
		}
	} else if !s.Cfg.SkipNearField {
		sch := t.NearField()
		spec.NearChunk = func(lo, hi int) func() {
			return func() { s.nearFieldChunk(sch, lo, hi) }
		}
	}

	g := dag.Build(spec)
	g.SetTrace(true)
	regionTimer := sched.StartTimer()
	if err := g.Run(); err != nil {
		// The builder only emits child->parent, parent->child and
		// up->down edges — a cycle is a builder bug, not a data condition.
		panic(err)
	}
	out.region = regionTimer.Elapsed()
	out.stats = g.Stats()
	s.taskStats = out.stats
	out.near = sched.SpanUnion(out.stats.Spans, taskTags.Near)
	out.up = sched.SpanUnion(out.stats.Spans, taskTags.Up)
	out.down = sched.SpanUnion(out.stats.Spans, taskTags.Down)
	out.l2p = sched.SpanUnion(out.stats.Spans, taskTags.L2P)
	if rec.Enabled() {
		for _, sp := range out.stats.Spans {
			if sp.Tag < 0 || sp.DurNs <= 0 {
				continue // milestones and cancelled nodes
			}
			rec.AddSpan(telemetry.SpanKind(sp.Tag), sp.Arg,
				out.stats.Start.Add(time.Duration(sp.StartNs)),
				time.Duration(sp.DurNs))
		}
		rec.SetTaskGraph(out.stats.Nodes, out.stats.Edges, out.stats.MaxReady,
			out.stats.CriticalPathNs, out.stats.MakespanNs)
	}
	return out
}
