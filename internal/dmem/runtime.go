package dmem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"afmm/internal/core"
	"afmm/internal/dag"
	"afmm/internal/sched"
	"afmm/internal/telemetry"
)

// Runtime executes the partitioned tree: one goroutine per virtual
// cluster node, each running its share of the step graph (internal/dag:
// the single-node builder, clipped to the node's body range) over a
// private field. Cross-node data (multipoles, locals, ghost bodies) moves
// as framed messages over the step's transport; each incoming flow is an
// arrival node in the receiver's graph, so work that depends on remote
// data — chunks of near rows with remote sources, down chunks translating
// remote multipoles — waits on exactly the arrivals it needs while
// everything local proceeds. That is the halo-hiding schedule: the near
// field's local rows execute under the communication wait instead of
// after it.
//
// Deadlock freedom: arrivals are the only nodes that block, and they are
// sched.Graph Wait nodes: each runs on a goroutine of its own, outside the
// node pool's slots, so a receive never holds a slot, never runs inline
// under another node or under Run, and never delays another arrival.
// Compute chunks and sends (ClassFar/ClassNear) never block
// (transport.Send does not wait for the wire), so whether they find a
// slot or run inline (help-first) they finish. Receives are
// deadline-bounded with an always-available degradation path, and the
// cross-node message graph is acyclic by level (see plan.go). Progress
// then follows by induction over the global dependency DAG.
type Runtime struct {
	// drv is the single-node solver whose tree this runtime partitions:
	// the tree, bodies, order, pool (its geometry cuts the chunks),
	// recorder, skip flags and the one M2L class table all node engines
	// translate through (built on drv's pool once per list epoch before
	// the node goroutines start).
	drv *core.Solver
	eng []*nodeEngine
	// cfg is read for the interconnect model (Net) and the link layer:
	// the possibly empty chaos schedule and its verdict seed (LinkFaults,
	// LinkSeed), and the tests' protocol knobs (link).
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

// nodeComm is one node's measured communication activity in a step,
// with atomic fields (arrivals run on multiple drainer goroutines within
// one node's pool). waitNs is the wall time the node's arrivals spent
// blocked in receives — comm wait that overlapped local work — and feeds
// the node's comm span.
type nodeComm struct {
	bytesIn atomic.Int64
	msgsIn  atomic.Int64
	waitNs  atomic.Int64
}

// Step executes one distributed solve over the current tree: builds the
// exchange plan for the leaf-aligned ownership cuts, zeroes the
// accumulators, and runs every alive node's graph to completion over a
// per-step transport. step indexes the run's link-fault schedule. On
// return the shared particle accumulators hold the full (near + far)
// result, bit-identical to the single-node solver — under any link-fault
// schedule, within or beyond the retry budget. A dead node (alive[k] ==
// false) must own no bodies — callers repartition before calling Step.
// The returned report carries what the step measured: per-node bytes and
// messages received, the link layer's activity, the plan's ghost-leaf
// count and the node graphs' sizes; Solver.attribute adds the model.
func (rt *Runtime) Step(cuts []int32, alive []bool, step int) StepReport {
	t := rt.drv.Tree
	t.BuildLists()
	rt.drv.PrepareM2L()
	sch := t.NearField()
	rt.drv.Sys.ResetAccumulators()

	p := len(rt.eng)
	for k := 0; k < p; k++ {
		if alive[k] {
			rt.eng[k].prepare(len(t.Nodes))
		} else if cuts[k] != cuts[k+1] {
			// Nobody would send this range's flows: a hang, not an error.
			panic(fmt.Sprintf("dmem: dead node %d owns bodies [%d, %d)", k, cuts[k], cuts[k+1]))
		}
	}
	pl := buildPlan(t, sch, cuts)

	tp := newTransport(pl.flowIDs(), rt.cfg.link, rt.cfg.LinkFaults, rt.cfg.LinkSeed, step)
	comm := make([]nodeComm, p)
	sizes := make([]sched.GraphStats, p)
	var wg sync.WaitGroup
	for k := 0; k < p; k++ {
		if !alive[k] {
			continue
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sizes[k] = rt.runNode(k, pl, cuts[k], cuts[k+1], tp, &comm[k])
		}(k)
	}
	wg.Wait()
	tp.Close()

	rep := StepReport{PerNode: make([]NodeTimes, p), Net: tp.Stats()}
	for k := 0; k < p; k++ {
		for _, f := range pl.in[k] {
			if f.id.kind == flowGhost {
				rep.GhostLeaves += int64(len(f.cells))
			}
		}
		rep.PerNode[k].BytesIn = comm[k].bytesIn.Load()
		rep.PerNode[k].Messages = comm[k].msgsIn.Load()
		rep.GraphNodes += sizes[k].Nodes
		rep.GraphEdges += sizes[k].Edges
	}
	return rep
}

// runNode builds and runs node k's step graph over its body range
// [lo, hi): one arrival node per incoming flow, one P2M node per incoming
// ghost flow with cells to form, the range's share of the step graph, one
// send node per outgoing flow. A skipped phase's flows still cross the
// wire; only its compute is left out.
func (rt *Runtime) runNode(k int, pl *exchangePlan, lo, hi int32, tp *transport, nc *nodeComm) sched.GraphStats {
	start := time.Now()
	rec := rt.drv.Cfg.Rec
	e := rt.eng[k]
	in, out := pl.in[k], pl.out[k]
	// Arrivals wait outside the pool; its slots bound the node's compute
	// and sends.
	g := sched.NewPool(len(in) + 2).NewGraph()
	spec := rt.drv.StepSpec(e.Field, e.ws, e.ghosts)
	spec.Share = dag.Share{Lo: lo, Hi: hi,
		Mpole: e.arrival[flowMpole], Local: e.arrival[flowLocal], Ghost: e.arrival[flowGhost]}

	// Arrivals (see the deadlock-freedom argument above Runtime). A ghost
	// flow's form cells get their multipoles from a P2M node over the
	// delivered copies, which stands as their multipole arrival.
	for _, f := range in {
		id := g.Wait(spec.Tags.Milestone, int32(f.id.from), func() { rt.receive(e, f, tp, nc) })
		for _, ci := range f.cells {
			e.arrival[f.id.kind][ci] = id
		}
		if len(f.form) == 0 || spec.UpChunk == nil {
			continue
		}
		p2m := g.Node(sched.ClassFar, spec.Tags.Up, int32(f.id.from), func() {
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
	done := dag.Build(spec, g)
	// Sends: a level's multipoles leave after its up chunks, its locals
	// after its down chunks; ghost sends are roots (body positions are
	// step inputs), on the wire before any compute.
	for _, f := range out {
		class, after := sched.ClassFar, done.Up
		switch f.id.kind {
		case flowLocal:
			after = done.Down
		case flowGhost:
			class, after = sched.ClassNear, nil
		}
		id := g.Node(class, spec.Tags.Milestone, int32(f.id.to), func() { tp.Send(f.id, e.pack(f)) })
		if after != nil {
			for _, chunk := range after[f.id.level] {
				g.Edge(chunk, id)
			}
		}
	}

	if err := g.Run(); err != nil {
		panic(err) // the plan's flows are acyclic by construction
	}
	dur := time.Since(start)
	rec.AddSpan(telemetry.SpanDmemNode, int32(k), start, dur)
	if w := nc.waitNs.Load(); w > 0 {
		rec.AddSpan(telemetry.SpanDmemComm, int32(k), start, time.Duration(w))
	}
	return g.Stats()
}

// receive is an arrival node's body: it blocks on the flow's delivery and
// loads the payload — expansions into the engine's slabs, ghost bodies
// into its table. On deadline expiry the payload is recovered, so the load
// always sees the sender's original bytes: expansions over the reliable
// re-request path — the missing-expansion recovery before the L2P join —
// and ghost rows re-packed host-side from the shared read-only particle
// arrays (the owner's bytes by construction, PR 5's row-atomic fallback
// discipline). Degradation costs time, never values.
func (rt *Runtime) receive(e *nodeEngine, f flow, tp *transport, nc *nodeComm) {
	t0 := time.Now()
	pay, ok := tp.Recv(f.id)
	if !ok && f.id.kind != flowGhost {
		pay = tp.Rerequest(f.id)
	}
	nc.waitNs.Add(int64(time.Since(t0)))
	var bytes int64
	if f.id.kind == flowGhost {
		if !ok {
			pay = e.pack(f)
			tp.noteGhostDegrade()
		}
		for i, ci := range f.cells {
			e.ghosts[ci] = pay.ghost[i]
			bytes += int64(rt.drv.Tree.Nodes[ci].Count()) * int64(rt.cfg.Net.BytesPerBody)
		}
	} else {
		load := e.LoadMpole
		if f.id.kind == flowLocal {
			load = e.LoadLocal
		}
		for i, ci := range f.cells {
			load(ci, pay.exp[i*e.expLen:(i+1)*e.expLen])
		}
		bytes = int64(len(pay.exp)) * 16
	}
	nc.bytesIn.Add(bytes)
	nc.msgsIn.Add(1)
}
