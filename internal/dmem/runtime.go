package dmem

import (
	"sync"
	"sync/atomic"
	"time"

	"afmm/internal/core"
	"afmm/internal/fault"
	"afmm/internal/octree"
	"afmm/internal/sched"
	"afmm/internal/sphharm"
	"afmm/internal/telemetry"
)

// Runtime executes the partitioned tree: one goroutine per virtual
// cluster node, each running its locally essential tree through its own
// sched.Graph. Cross-node data (multipoles, locals, ghost bodies) moves
// as framed messages over the step's transport; each incoming message is
// a milestone node in the receiver's graph, so work that depends on
// remote data — remote-source P2P rows, V-list translations with remote
// sources — waits on exactly the arrival it needs while everything local
// proceeds. That is the halo-hiding schedule: the near field's local
// rows execute under the communication wait instead of after it.
//
// Deadlock freedom: each node's pool has (milestones + 2) worker slots
// and every graph node runs as ClassGeneral, so at most all milestones
// can block in transport receives while two slots always remain to drain
// compute; sends never block (transport.Send is asynchronous); receives
// are deadline-bounded with an always-available degradation path; and
// the cross-node message graph is acyclic by level (see plan.go).
// Progress then follows by induction over the global dependency DAG.
type Runtime struct {
	// drv is the single-node solver whose tree this runtime partitions:
	// the tree, bodies, order, pool, recorder, skip flags and the one M2L
	// class table all node engines translate through (built on drv's pool
	// once per list epoch before the node goroutines start).
	drv *core.Solver
	eng []*nodeEngine
	net NetworkSpec

	// link layer: protocol knobs plus the (possibly empty) chaos
	// schedule and its verdict seed.
	link     LinkConfig
	linkSch  *fault.LinkSchedule
	linkSeed int64
}

// newRuntime returns the runtime executing drv's tree on nodes engines,
// each over a private copy of drv's field.
func newRuntime(drv *core.Solver, nodes int, net NetworkSpec) *Runtime {
	rt := &Runtime{drv: drv, eng: make([]*nodeEngine, nodes), net: net}
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
	// WaitNs is wall time the node's milestones spent blocked in channel
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
}

// nodeCommAtomic is NodeComm with atomic fields (milestones run on
// multiple drainer goroutines within one node's pool).
type nodeCommAtomic struct {
	bytesIn atomic.Int64
	msgsIn  atomic.Int64
	waitNs  atomic.Int64
}

// Step executes one distributed solve over the current tree: builds the
// exchange plan for the given ownership, zeroes the accumulators, and
// runs every alive node's graph to completion over a per-step transport.
// step indexes the run's link-fault schedule. On return the shared
// particle accumulators hold the full (near + far) result, bit-identical
// to the single-node solver — under any link-fault schedule, within or
// beyond the retry budget. Dead nodes (alive[k] == false) must own no
// bodies under cuts — callers repartition before calling Step.
func (rt *Runtime) Step(ownerOf func(int32) int32, alive []bool, step int) *ExecStats {
	t := rt.drv.Tree
	t.BuildLists()
	rt.drv.PrepareM2L()
	sch := t.NearField()
	rt.drv.Sys.ResetAccumulators()

	p := len(rt.eng)
	pl := buildPlan(t, sch, ownerOf, p)
	for k := 0; k < p; k++ {
		if alive[k] {
			rt.eng[k].prepare(len(t.Nodes))
		}
	}

	tp := newTransport(pl.flowIDs(), rt.link, rt.linkSch, rt.linkSeed, step)
	comm := make([]nodeCommAtomic, p)
	var wg sync.WaitGroup
	for k := 0; k < p; k++ {
		if !alive[k] {
			continue
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rt.runNode(k, pl, sch, tp, &comm[k])
		}(k)
	}
	wg.Wait()
	tp.Close()

	es := &ExecStats{PerNode: make([]NodeComm, p), Net: tp.Stats()}
	for _, cells := range pl.ghostNeed {
		es.GhostLeaves += int64(len(cells))
	}
	for k := 0; k < p; k++ {
		nc := &es.PerNode[k]
		nc.BytesIn = comm[k].bytesIn.Load()
		nc.MsgsIn = comm[k].msgsIn.Load()
		nc.WaitNs = comm[k].waitNs.Load()
		es.TotalBytes += nc.BytesIn
		es.TotalMsgs += nc.MsgsIn
	}
	return es
}

// runNode builds and runs node k's step graph.
func (rt *Runtime) runNode(k int, pl *exchangePlan, sch *octree.NearSchedule, tp *transport, nc *nodeCommAtomic) {
	start := time.Now()
	t := rt.drv.Tree
	rec := rt.drv.Cfg.Rec
	skipFar, skipNear := rt.drv.Cfg.SkipFarField, rt.drv.Cfg.SkipNearField
	e := rt.eng[k]
	expLen := e.Width() * sphharm.PackedLen(rt.drv.Cfg.P)

	// Count incoming milestones to size the node's private pool.
	ms := 0
	if !skipFar {
		for fk := range pl.mpoleNeed {
			if fk.to == k {
				ms++
			}
		}
		for fk := range pl.localNeed {
			if fk.to == k {
				ms++
			}
		}
	}
	if !skipNear {
		for pk := range pl.ghostNeed {
			if pk.to == k {
				ms++
			}
		}
	}
	pool := sched.NewPool(ms + 2)
	g := pool.NewGraph()

	// recvExp blocks on the flow's delivery; on deadline expiry the
	// payload is recovered over the reliable re-request path, so the
	// slab load below always sees the sender's original bytes — the
	// missing-expansion recovery before the L2P join.
	recvExp := func(f flowID, cells []int32, load func(int32, []complex128)) {
		t0 := time.Now()
		pay, ok := tp.Recv(f)
		if !ok {
			pay = tp.Rerequest(f)
		}
		nc.waitNs.Add(int64(time.Since(t0)))
		data := pay.exp
		for i, ci := range cells {
			load(ci, data[i*expLen:(i+1)*expLen])
		}
		nc.bytesIn.Add(int64(len(data)) * 16)
		nc.msgsIn.Add(1)
	}

	// Arrival milestones, one per incoming flow; cellMpoleMS/cellLocalMS
	// resolve a remote cell to the milestone that delivers it (each cell
	// has one owner, so it arrives in exactly one flow).
	cellMpoleMS := map[int32]sched.NodeID{}
	cellLocalMS := map[int32]sched.NodeID{}
	ghostMS := map[int]sched.NodeID{}
	if !skipFar {
		for fk, cells := range pl.mpoleNeed {
			if fk.to != k {
				continue
			}
			f, cs := flowID{kind: flowMpole, from: fk.from, to: fk.to, level: fk.level}, cells
			id := g.Node(sched.ClassGeneral, 0, int32(fk.from), func() {
				recvExp(f, cs, e.LoadMpole)
			})
			for _, ci := range cs {
				cellMpoleMS[ci] = id
			}
		}
		for fk, cells := range pl.localNeed {
			if fk.to != k {
				continue
			}
			f, cs := flowID{kind: flowLocal, from: fk.from, to: fk.to, level: fk.level}, cells
			id := g.Node(sched.ClassGeneral, 0, int32(fk.from), func() {
				recvExp(f, cs, e.LoadLocal)
			})
			for _, ci := range cs {
				cellLocalMS[ci] = id
			}
		}
	}
	if !skipNear {
		for pk, cells := range pl.ghostNeed {
			if pk.to != k {
				continue
			}
			f, cs := flowID{kind: flowGhost, from: pk.from, to: pk.to}, cells
			var bytes int64
			for _, ci := range cs {
				bytes += int64(t.Nodes[ci].Count()) * int64(rt.net.BytesPerBody)
			}
			ghostMS[pk.from] = g.Node(sched.ClassGeneral, 0, int32(pk.from), func() {
				t0 := time.Now()
				pay, ok := tp.Recv(f)
				nc.waitNs.Add(int64(time.Since(t0)))
				data := pay.ghost
				if !ok {
					// Deadline expired: re-pack the ghost rows host-side from
					// the shared read-only particle arrays. The bytes are the
					// owner's bytes by construction (PR 5's row-atomic
					// fallback discipline), so the degradation costs time,
					// never values.
					data = make([]core.GhostLeaf, len(cs))
					for i, ci := range cs {
						data[i] = e.PackGhost(ci)
					}
					tp.noteGhostDegrade()
				}
				for i, ci := range cs {
					e.ghosts[ci] = data[i]
				}
				nc.bytesIn.Add(bytes)
				nc.msgsIn.Add(1)
			})
		}
	}

	owned := pl.ownedCells[k]
	upID := map[int32]sched.NodeID{}
	downID := map[int32]sched.NodeID{}
	if !skipFar {
		// Up tasks first (all created before edges: a parent precedes its
		// children in the DFS order but its up task depends on theirs).
		for _, ni := range owned {
			ni := ni
			upID[ni] = g.Node(sched.ClassGeneral, 1, ni, func() {
				w := e.ws.Get()
				e.Up(w, ni)
				e.ws.Put(w)
			})
		}
		for _, ni := range owned {
			n := &t.Nodes[ni]
			if n.IsVisibleLeaf() {
				continue
			}
			for _, ci := range n.Children {
				if ci == octree.NilNode || t.Nodes[ci].Count() == 0 {
					continue
				}
				if pl.owner[ci] == int32(k) {
					g.Edge(upID[ci], upID[ni])
				} else {
					g.Edge(cellMpoleMS[ci], upID[ni])
				}
			}
		}
		// Multipole sends: one task per outgoing flow, after the cells'
		// up tasks.
		for fk, cells := range pl.mpoleNeed {
			if fk.from != k {
				continue
			}
			f, cs := flowID{kind: flowMpole, from: fk.from, to: fk.to, level: fk.level}, cells
			id := g.Node(sched.ClassGeneral, 2, int32(fk.to), func() {
				buf := make([]complex128, len(cs)*expLen)
				for i, ci := range cs {
					e.PackMpole(ci, buf[i*expLen:(i+1)*expLen])
				}
				tp.Send(f, payload{exp: buf})
			})
			for _, ci := range cs {
				g.Edge(upID[ci], id)
			}
		}
		// Down tasks in DFS order: a cell's parent precedes it, so the
		// parent edge can be added inline.
		for _, ni := range owned {
			ni := ni
			n := &t.Nodes[ni]
			downID[ni] = g.Node(sched.ClassGeneral, 3, ni, func() {
				w := e.ws.Get()
				e.Down(w, ni)
				e.ws.Put(w)
			})
			if pi := n.Parent; pi != octree.NilNode && t.Nodes[pi].Count() > 0 {
				if pl.owner[pi] == int32(k) {
					g.Edge(downID[pi], downID[ni])
				} else {
					g.Edge(cellLocalMS[pi], downID[ni])
				}
			}
			direct := t.DirectMask(ni)
			for j, vi := range n.V {
				if direct[j] {
					continue // summed by the near rows: reads no multipole
				}
				if pl.owner[vi] == int32(k) {
					g.Edge(upID[vi], downID[ni])
				} else {
					g.Edge(cellMpoleMS[vi], downID[ni])
				}
			}
		}
		// Local sends, after the parents' down tasks.
		for fk, cells := range pl.localNeed {
			if fk.from != k {
				continue
			}
			f, cs := flowID{kind: flowLocal, from: fk.from, to: fk.to, level: fk.level}, cells
			id := g.Node(sched.ClassGeneral, 4, int32(fk.to), func() {
				buf := make([]complex128, len(cs)*expLen)
				for i, ci := range cs {
					e.PackLocal(ci, buf[i*expLen:(i+1)*expLen])
				}
				tp.Send(f, payload{exp: buf})
			})
			for _, ci := range cs {
				g.Edge(downID[ci], id)
			}
		}
	}

	rowID := map[int32]sched.NodeID{}
	if !skipNear {
		// Ghost sends are roots: body positions are step inputs.
		for pk, cells := range pl.ghostNeed {
			if pk.from != k {
				continue
			}
			f, cs := flowID{kind: flowGhost, from: pk.from, to: pk.to}, cells
			g.Node(sched.ClassGeneral, 5, int32(pk.to), func() {
				data := make([]core.GhostLeaf, len(cs))
				for i, ci := range cs {
					data[i] = e.PackGhost(ci)
				}
				tp.Send(f, payload{ghost: data})
			})
		}
		// Near rows: local-source rows are roots (they execute under the
		// communication wait — the halo hiding); rows with remote sources
		// depend on the ghost milestone of each sending peer.
		for _, r := range pl.rows[k] {
			r := r
			id := g.Node(sched.ClassGeneral, 6, sch.Leaves[r], func() {
				e.NearRow(sch, r, e.ghosts)
			})
			rowID[sch.Leaves[r]] = id
			for s := sch.RowPtr[r]; s < sch.RowPtr[r+1]; s++ {
				if j := pl.owner[sch.Srcs[s]]; j != int32(k) {
					g.Edge(ghostMS[int(j)], id)
				}
			}
		}
	}

	if !skipFar {
		// L2P last per leaf: after the leaf's down task and its near row,
		// so the far-field addition lands after the P2P accumulations —
		// the single-node operation order, hence bit-identity.
		for _, ni := range owned {
			ni := ni
			if !t.Nodes[ni].IsVisibleLeaf() {
				continue
			}
			id := g.Node(sched.ClassGeneral, 7, ni, func() {
				w := e.ws.Get()
				e.L2P(w, ni)
				e.ws.Put(w)
			})
			g.Edge(downID[ni], id)
			if rid, ok := rowID[ni]; ok {
				g.Edge(rid, id)
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
}
