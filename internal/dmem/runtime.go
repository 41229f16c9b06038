package dmem

import (
	"fmt"
	"time"

	"afmm/internal/core"
	"afmm/internal/dag"
	"afmm/internal/sched"
	"afmm/internal/telemetry"
)

// Runtime executes the partitioned tree as one step graph on the solver's
// pool: every virtual cluster node's share of it (internal/dag, clipped to
// the node's body range) over a private field, joined by the exchange
// plan's flows, each a send node in the sender's share with one edge to an
// unpack node in the receiver's. Work that reads remote data waits on
// exactly the unpacks it needs while everything local proceeds: the
// halo-hiding schedule. No node blocks (Send settles a flow on the modeled
// clock), and the graph is acyclic because the plan's flows are (plan.go).
//
// Sends and unpacks run in ClassGeneral, a class of their own: a ready one
// gets a drainer at once instead of queueing behind the far or near chunks
// that class's drainers are running. In those classes, one worker of a
// 2-worker pool sat idle for half of a step on dmem-grav-4n's inputs.
type Runtime struct {
	// drv is the single-node solver whose tree this runtime partitions:
	// the tree, bodies, order, pool (it cuts the chunks and runs the step
	// graph), recorder, DryRun and the one M2L class table all node
	// engines translate through.
	drv *core.Solver
	eng []*nodeEngine
	// cfg supplies the interconnect model and the link layer's chaos
	// schedule and verdict seed.
	cfg *Config
}

// newRuntime returns the runtime executing drv's tree on the configured
// nodes, each over a private copy of drv's field.
func newRuntime(drv *core.Solver, cfg *Config) *Runtime {
	rt := &Runtime{drv: drv, eng: make([]*nodeEngine, len(cfg.Nodes)), cfg: cfg}
	for k := range rt.eng {
		rt.eng[k] = newNodeEngine(drv)
	}
	return rt
}

// Step executes one distributed solve over the current tree under the
// leaf-aligned ownership cuts; step indexes the run's link-fault schedule.
// On return the shared accumulators hold the full (near + far) result,
// bit-identical to the single-node solver's under any link-fault schedule.
// A dead node (alive[k] == false) must own no bodies. The report carries
// what the step measured: per-node bytes and messages received, the link
// layer's activity, the plan's ghost leaves and the graph's size;
// Solver.attribute adds the model.
func (rt *Runtime) Step(cuts []int32, alive []bool, step int) StepReport {
	t := rt.drv.Tree
	t.BuildLists()
	if !rt.drv.Cfg.DryRun {
		rt.drv.PrepareM2L()
	}
	sch := t.NearField()
	rt.drv.Sys.ResetAccumulators()

	p := len(rt.eng)
	for k := 0; k < p; k++ {
		if alive[k] {
			rt.eng[k].prepare(len(t.Nodes))
		} else if cuts[k] != cuts[k+1] {
			// Nobody would send this range's flows: its receivers would
			// unpack payloads that were never settled.
			panic(fmt.Sprintf("dmem: dead node %d owns bodies [%d, %d)", k, cuts[k], cuts[k+1]))
		}
	}
	pl := buildPlan(t, sch, cuts)
	tp := newTransport(pl.flowIDs(), rt.cfg.Net, rt.cfg.LinkFaults, rt.cfg.LinkSeed, step)

	rec := rt.drv.Cfg.Rec
	g := rt.drv.Cfg.Pool.NewGraph()
	g.SetTrace(rec.Enabled())
	unpacks := make(map[flowID]sched.NodeID)
	done := make([]dag.Done, p)
	for k := 0; k < p; k++ {
		if alive[k] {
			done[k] = rt.buildShare(g, k, pl.in[k], cuts[k], cuts[k+1], tp, unpacks)
		}
	}
	// Sends: a level's multipoles leave after its up chunks, its locals
	// after its down chunks; ghost sends are roots, on the wire before any
	// compute.
	for k := 0; k < p; k++ {
		e := rt.eng[k]
		for _, f := range pl.out[k] {
			after := done[k].Up
			if f.id.kind == flowLocal {
				after = done[k].Down
			} else if f.id.kind == flowGhost {
				after = nil
			}
			id := g.Node(sched.ClassGeneral, int32(k), int32(f.id.to), func() { tp.Send(f.id, e.pack(f)) })
			if after != nil {
				for _, chunk := range after[f.id.level] {
					g.Edge(chunk, id)
				}
			}
			g.Edge(id, unpacks[f.id])
		}
	}
	if err := g.Run(); err != nil {
		panic(err) // the plan's flows are acyclic by level
	}

	st := g.Stats()
	rep := StepReport{PerNode: make([]NodeTimes, p), Net: tp.Stats(),
		GraphNodes: st.Nodes, GraphEdges: st.Edges}
	for k := 0; k < p; k++ {
		nt := &rep.PerNode[k]
		for _, f := range pl.in[k] {
			if f.id.kind == flowGhost {
				rep.GhostLeaves += int64(len(f.cells))
			}
			pay, _ := tp.Recv(f.id)
			nt.BytesIn += payloadBytes(pay, rt.cfg.Net.BytesPerBody)
		}
		nt.Messages = int64(len(pl.in[k]))
		// Node k's graph nodes all carry tag k: its span is their union.
		if startNs, union := sched.SpanUnion(st.Spans, int32(k)); union > 0 {
			rec.AddSpan(telemetry.SpanDmemNode, int32(k), st.Start.Add(time.Duration(startNs)), union)
		}
	}
	return rep
}

// buildShare adds node k's part of the step graph over its body range
// [lo, hi), every node tagged k: one unpack node per incoming flow, one
// P2M node per incoming ghost flow with cells to form, and the range's
// share. A dry step's flows still cross the wire, but it builds no share.
func (rt *Runtime) buildShare(g *sched.Graph, k int, in []flow, lo, hi int32, tp *transport, unpacks map[flowID]sched.NodeID) dag.Done {
	e := rt.eng[k]
	tag := int32(k)
	dry := rt.drv.Cfg.DryRun
	for _, f := range in {
		id := g.Node(sched.ClassGeneral, tag, int32(f.id.from), func() { e.unpack(f, tp) })
		unpacks[f.id] = id
		for _, ci := range f.cells {
			e.arrival[f.id.kind][ci] = id
		}
		if len(f.form) == 0 || dry {
			continue
		}
		p2m := g.Node(sched.ClassFar, tag, int32(f.id.from), func() {
			w := e.ws.Get()
			for _, ci := range f.form {
				e.Up(w, ci, e.ghosts)
			}
			e.ws.Put(w)
		})
		g.Edge(id, p2m)
		for _, ci := range f.form {
			e.arrival[flowMpole][ci] = p2m
		}
	}
	if dry {
		return dag.Done{}
	}
	spec := rt.drv.StepSpec(e.Field, e.ws, e.ghosts)
	spec.Tags = dag.Tags{Up: tag, Down: tag, L2P: tag, Near: tag, Milestone: tag}
	spec.Share = dag.Share{Lo: lo, Hi: hi,
		Mpole: e.arrival[flowMpole], Local: e.arrival[flowLocal], Ghost: e.arrival[flowGhost]}
	return dag.Build(spec, g)
}
