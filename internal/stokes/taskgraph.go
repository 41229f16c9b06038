package stokes

import (
	"time"

	"afmm/internal/core"
	"afmm/internal/dag"
	"afmm/internal/sched"
	"afmm/internal/telemetry"
)

// Task-graph solve path for the Stokes solver (see core/taskgraph.go for
// the shared design). The graph has the gravity solver's shape — one
// up/M2L/L2L chain and the near field, joined at the leaves' L2P — and
// each far-field chunk computes all four harmonic passes of its cells
// (upNode, downNode), because the passes share every translation's
// geometry and the fused M2L needs them side by side. The chunk bodies
// are the level-synchronous sweeps' bodies, so the result is bit-identical
// to theirs.

var taskTags = dag.Tags{
	Up:        int32(telemetry.SpanTaskUp),
	Down:      int32(telemetry.SpanTaskDown),
	L2P:       int32(telemetry.SpanTaskL2P),
	Near:      int32(telemetry.SpanTaskNear),
	Milestone: -1,
}

type taskGraphResult struct {
	gpuTime             float64
	near, up, down, l2p time.Duration
	region              time.Duration
	stats               sched.GraphStats
}

// taskGraphEligible mirrors core.Solver.taskGraphEligible.
func (s *Solver) taskGraphEligible() bool {
	if !s.Cfg.TaskGraph {
		return false
	}
	if s.Cfg.SweepMode != core.SweepLevelSync || s.Cfg.SkipFarField {
		return false
	}
	return s.Cfg.Pool.Workers() >= 2
}

// solveTaskGraph builds and runs the step DAG; the caller has already run
// BuildLists, accumulator reset, slab sizing, M2L table preparation, the
// precision gate, and (with a cluster) Partition.
func (s *Solver) solveTaskGraph() taskGraphResult {
	t := s.Tree
	rec := s.Cfg.Rec
	var out taskGraphResult

	// Reserve driver slots before the build: chunk bounds are
	// reservation-aware, so they must see the final partition.
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
	if s.Cl != nil {
		spec.NearSingle = func() {
			out.gpuTime = s.Cl.ExecuteParallel(t, s.p2pPair, s.Cfg.Pool)
		}
	} else {
		sch := t.NearField()
		spec.NearChunk = func(lo, hi int) func() {
			return func() { s.nearFieldChunk(sch, lo, hi) }
		}
	}

	g := dag.Build(spec)
	g.SetTrace(true)
	regionTimer := sched.StartTimer()
	if err := g.Run(); err != nil {
		panic(err) // a cycle is a builder bug, not a data condition
	}
	out.region = regionTimer.Elapsed()
	out.stats = g.Stats()
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
