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
// Deadlock freedom: arrivals are the only nodes that block and the only
// ClassGeneral nodes, and they are the graph's first nodes and roots. Run
// enqueues roots in creation order, so each arrival is handed to a drainer
// while the node's private pool of (arrivals + 2) slots still has one
// free: every Recv sits on a goroutine of its own, never inline under
// another node's completion, and at most `arrivals` slots are held in
// transport receives. Compute chunks and sends (ClassFar/ClassNear) never
// block (transport.Send is asynchronous), so whether they find one of the
// two remaining slots or run inline (help-first) they finish. Receives are
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
	// protocol knobs (Link) plus the possibly empty chaos schedule and its
	// verdict seed (LinkFaults, LinkSeed).
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

// NodeComm is one node's measured communication activity in a step.
type NodeComm struct {
	// BytesIn counts modeled payload bytes received (expansion
	// coefficients at 16 bytes/complex, ghost bodies at
	// NetworkSpec.BytesPerBody).
	BytesIn int64
	// MsgsIn counts aggregated messages received (one per sender/kind/
	// level flow).
	MsgsIn int64
	// WaitNs is wall time the node's arrivals spent blocked in channel
	// receives — comm wait that overlapped local work, not serialized
	// after it.
	WaitNs int64
}

// ExecStats aggregates one executed distributed step.
type ExecStats struct {
	PerNode    []NodeComm
	TotalBytes int64
	TotalMsgs  int64
	// Net is the step's link-layer delivery activity (frames, retries,
	// checksum rejects, deadline degradations, per-link RTT).
	Net NetStats
	// GhostLeaves counts the plan's (receiver, source leaf) ghost-body
	// shipments: U-list neighbours plus the accepted leaves summed
	// directly, which need bodies where a translation needed a multipole.
	GhostLeaves int64
	// GraphNodes and GraphEdges size the node graphs, summed.
	GraphNodes, GraphEdges int
}

// nodeCommAtomic is NodeComm with atomic fields (arrivals run on
// multiple drainer goroutines within one node's pool).
type nodeCommAtomic struct {
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
func (rt *Runtime) Step(cuts []int32, alive []bool, step int) *ExecStats {
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
	pl := buildPlan(t, sch, cuts, !rt.drv.Cfg.SkipFarField, !rt.drv.Cfg.SkipNearField)

	tp := newTransport(pl.flowIDs(), rt.cfg.Link, rt.cfg.LinkFaults, rt.cfg.LinkSeed, step)
	comm := make([]nodeCommAtomic, p)
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

	es := &ExecStats{PerNode: make([]NodeComm, p), Net: tp.Stats()}
	for k := 0; k < p; k++ {
		for _, f := range pl.in[k] {
			if f.id.kind == flowGhost {
				es.GhostLeaves += int64(len(f.cells))
			}
		}
		nc := &es.PerNode[k]
		nc.BytesIn = comm[k].bytesIn.Load()
		nc.MsgsIn = comm[k].msgsIn.Load()
		nc.WaitNs = comm[k].waitNs.Load()
		es.TotalBytes += nc.BytesIn
		es.TotalMsgs += nc.MsgsIn
		es.GraphNodes += sizes[k].Nodes
		es.GraphEdges += sizes[k].Edges
	}
	return es
}

// runNode builds and runs node k's step graph over its body range
// [lo, hi): one arrival node per incoming flow, the range's share of the
// step graph, one send node per outgoing flow.
func (rt *Runtime) runNode(k int, pl *exchangePlan, lo, hi int32, tp *transport, nc *nodeCommAtomic) sched.GraphStats {
	start := time.Now()
	rec := rt.drv.Cfg.Rec
	e := rt.eng[k]
	in, out := pl.in[k], pl.out[k]
	g := sched.NewPool(len(in) + 2).NewGraph()
	spec := rt.drv.StepSpec(e.Field, e.ws, e.ghosts)
	spec.Share = dag.Share{Lo: lo, Hi: hi,
		Mpole: e.arrival[flowMpole], Local: e.arrival[flowLocal], Ghost: e.arrival[flowGhost]}

	// Arrivals first (see the deadlock-freedom argument above Runtime).
	for _, f := range in {
		id := g.Node(sched.ClassGeneral, spec.Tags.Milestone, int32(f.id.from), func() { rt.receive(e, f, tp, nc) })
		for _, ci := range f.cells {
			e.arrival[f.id.kind][ci] = id
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
func (rt *Runtime) receive(e *nodeEngine, f flow, tp *transport, nc *nodeCommAtomic) {
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
