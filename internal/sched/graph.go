package sched

import (
	"errors"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Task-graph runtime: dependency-driven execution on top of Pool (Ltaief &
// Yokota, "Data-Driven Execution of Fast Multipole Methods"; Agullo et
// al., "Pipelining the Fast Multipole Method over a Runtime System").
// Nodes are closures tagged with a work Class and a data-locality hint;
// edges are dependencies. A node becomes runnable when its in-degree
// drops to zero; runnable nodes are pushed to per-class ready queues
// drained by tasks admitted through the pool's worker slots, so a graph
// execution can share the pool with conventional parallel ranges.
//
// The runtime makes no scheduling promises beyond dependency order —
// bit-identical results therefore require the graph's *nodes* to be
// deterministic units: each accumulator must be written wholly inside
// one node (or by nodes ordered by edges), with a fixed internal
// operation order. The solvers' graph builders are constructed around
// exactly that invariant.

// ErrCycle is returned by Graph.Run when the graph is not a DAG. The
// check runs before any node executes, so a cyclic graph returns an
// error instead of deadlocking with no node side effects applied.
var ErrCycle = errors.New("sched: task graph contains a cycle")

// NodeID identifies a node within one Graph.
type NodeID int32

type gnode struct {
	fn    func()
	class Class
	tag   int32 // caller-defined span kind (opaque to sched)
	arg   int32 // data-locality hint: level, chunk or peer node index
	preds int32
}

// NodeSpan is the per-node execution record collected when tracing is
// enabled, in the units the telemetry layer stores spans (ns relative
// to the run start).
type NodeSpan struct {
	Tag     int32
	Arg     int32
	Class   Class
	StartNs int64
	DurNs   int64
}

// GraphStats summarizes one Run for telemetry and benchmarking.
type GraphStats struct {
	Nodes int
	Edges int
	// MaxReady is the high-water mark of the total ready-queue depth
	// (across classes). Depth persistently near 1 means the graph is
	// chain-like (no slack to recover); depth near the worker count means
	// the pool, not the dependency structure, is the bound.
	MaxReady int
	// CriticalPathNs is the longest dependency chain weighted by the
	// measured node durations (only available when tracing was enabled);
	// MakespanNs is the measured wall time of Run. Their gap is the
	// slack dependency-driven execution could not (or need not) recover.
	CriticalPathNs int64
	MakespanNs     int64
	Spans          []NodeSpan // nil unless SetTrace(true)
	// Start is when Run began executing nodes; span StartNs values are
	// relative to it.
	Start time.Time
	// LocalityHits counts ready-node pops where the drainer found, within
	// a bounded window from the top of its class's LIFO queue, a node
	// whose last-completed predecessor it executed itself — the data
	// producer's worker consuming the data, so the operands are likely
	// still in that worker's cache. Dependency order alone decides *what*
	// may run; the hint only biases *which* ready node a drainer takes,
	// so results are unchanged.
	LocalityHits int64
}

// Graph is a single-use dependency graph. Build nodes with Node, add
// edges with Edge, execute once with Run. A Graph must not be reused
// after Run returns.
//
// Edges live in one flat list while the graph is built; Run sorts them
// into CSR form, node id's successors being succ[ptr[id]:ptr[id+1]] in the
// order their edges were added.
type Graph struct {
	pool  *Pool
	trace bool

	nodes []gnode
	edges [][2]NodeID
	ptr   []int32
	succ  []NodeID
	topo  []NodeID

	mu     [NumClasses]sync.Mutex
	queue  [NumClasses][]NodeID
	active [NumClasses]atomic.Int32
	groups [NumClasses]*Group

	indeg     []atomic.Int32
	completed atomic.Int32
	done      chan struct{}
	panicked  atomic.Pointer[TaskPanic]
	aborted   atomic.Bool

	// prefer[id] is the drainer that completed id's most recent
	// predecessor (0 = none): the data-locality hint drain consults.
	prefer       []atomic.Int32
	drainSeq     atomic.Int32
	localityHits atomic.Int64

	ready    atomic.Int32
	maxReady atomic.Int32

	spans    []NodeSpan
	start    time.Time
	makespan int64
}

// NewGraph returns an empty task graph executing on the pool's slots.
func (p *Pool) NewGraph() *Graph { return &Graph{pool: p} }

// SetTrace enables per-node span collection (and thereby the measured
// critical path in Stats). Call before Run.
func (g *Graph) SetTrace(on bool) { g.trace = on }

// Node adds a task executing fn under class c and returns its id. tag is
// an opaque caller-defined label (the solvers store a telemetry span
// kind); arg is the data-locality hint (octree level, chunk index or
// peer node id) reported alongside. fn must not block on another node: a
// ready node may run inline under another, so order them with Edge.
func (g *Graph) Node(c Class, tag, arg int32, fn func()) NodeID {
	g.nodes = append(g.nodes, gnode{fn: fn, class: c, tag: tag, arg: arg})
	return NodeID(len(g.nodes) - 1)
}

// Edge declares that node from must complete before node to starts.
// Duplicate edges are permitted (the in-degree bookkeeping stays
// balanced); a self-edge makes the graph cyclic and Run will reject it.
func (g *Graph) Edge(from, to NodeID) {
	if int(from) >= len(g.nodes) || int(to) >= len(g.nodes) || from < 0 || to < 0 {
		panic("sched: Edge references unknown node")
	}
	g.edges = append(g.edges, [2]NodeID{from, to})
	g.nodes[to].preds++
}

// succs returns node id's successors (valid once Run has built the CSR).
func (g *Graph) succs(id NodeID) []NodeID { return g.succ[g.ptr[id]:g.ptr[id+1]] }

// Run executes the graph and blocks until every node has completed.
// A cyclic graph is rejected up front with ErrCycle, before any node
// runs. If a node panics, the remaining nodes are cancelled (their
// closures are skipped, but the completion protocol still runs so the
// join cannot deadlock) and the first recovered *TaskPanic is
// re-panicked here at the join — the same contract as Group.Wait.
func (g *Graph) Run() error {
	n := len(g.nodes)
	if n == 0 {
		return nil
	}
	// Counting sort of the edges by source, stable so every node keeps its
	// successors in the order they were added.
	// After the prefix sums ptr[id] is where id's edges start; placing
	// them advances it to where they end, which the final shift turns
	// back into starts.
	g.ptr = make([]int32, n+1)
	for _, e := range g.edges {
		g.ptr[e[0]+1]++
	}
	for i := 0; i < n; i++ {
		g.ptr[i+1] += g.ptr[i]
	}
	g.succ = make([]NodeID, len(g.edges))
	for _, e := range g.edges {
		g.succ[g.ptr[e[0]]] = e[1]
		g.ptr[e[0]]++
	}
	copy(g.ptr[1:], g.ptr[:n])
	g.ptr[0] = 0
	// Kahn's algorithm on the static in-degrees: both the cycle check
	// and the topological order Stats later uses for the critical path.
	indeg := make([]int32, n)
	order := make([]NodeID, 0, n)
	for i := range g.nodes {
		indeg[i] = g.nodes[i].preds
		if indeg[i] == 0 {
			order = append(order, NodeID(i))
		}
	}
	for k := 0; k < len(order); k++ {
		for _, s := range g.succs(order[k]) {
			if indeg[s]--; indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	if len(order) != n {
		return ErrCycle
	}
	g.topo = order

	g.indeg = make([]atomic.Int32, n)
	g.prefer = make([]atomic.Int32, n)
	for i := range g.nodes {
		g.indeg[i].Store(g.nodes[i].preds)
	}
	for c := range g.groups {
		g.groups[c] = g.pool.NewGroupClass(Class(c))
	}
	g.done = make(chan struct{})
	if g.trace {
		g.spans = make([]NodeSpan, n)
	}
	g.start = time.Now()
	for _, id := range g.topo {
		if g.nodes[id].preds == 0 {
			g.enqueue(id)
		}
	}
	<-g.done
	// Join the drainer tasks so every slot is back in the pool before
	// control returns (and before a panic unwinds past us).
	for c := range g.groups {
		g.groups[c].wg.Wait()
	}
	g.makespan = int64(time.Since(g.start))
	if tp := g.panicked.Load(); tp != nil {
		panic(tp)
	}
	for c := range g.groups {
		if tp := g.groups[c].panicked.Load(); tp != nil {
			panic(tp)
		}
	}
	return nil
}

// enqueue pushes a runnable node onto its class's ready queue and kicks
// a drainer if the class has spare slots.
func (g *Graph) enqueue(id NodeID) {
	c := g.nodes[id].class
	d := g.ready.Add(1)
	for {
		m := g.maxReady.Load()
		if d <= m || g.maxReady.CompareAndSwap(m, d) {
			break
		}
	}
	g.mu[c].Lock()
	g.queue[c] = append(g.queue[c], id)
	g.mu[c].Unlock()
	g.kick(c)
}

// kick admits one more drainer for class c unless the class already has
// as many drainers as the pool has slots. Spawn never blocks: with no
// free slot the drainer runs inline in the caller (help-first), which
// keeps the completion protocol deadlock-free.
func (g *Graph) kick(c Class) {
	limit := int32(g.pool.workers)
	for {
		a := g.active[c].Load()
		if a >= limit {
			return
		}
		if g.active[c].CompareAndSwap(a, a+1) {
			break
		}
	}
	g.groups[c].Spawn(func() { g.drain(c) })
}

// localityWindow bounds how far below the LIFO top drain scans for a
// node preferring the current drainer, so the hint never turns the O(1)
// pop into a linear search of a deep ready queue.
const localityWindow = 8

// drain pops and executes ready nodes of class c until the queue is
// empty. The active-drainer count is decremented under the queue lock
// while the queue is observed empty, so an enqueue that pushes after
// the drainer's exit decision is guaranteed to observe the decremented
// count and kick a replacement — no lost wakeups. Within a bounded
// window from the top, a node whose last predecessor this drainer
// executed is taken first (the data-locality hint); otherwise plain
// LIFO.
func (g *Graph) drain(c Class) {
	me := g.drainSeq.Add(1)
	for {
		g.mu[c].Lock()
		q := g.queue[c]
		if len(q) == 0 {
			g.active[c].Add(-1)
			g.mu[c].Unlock()
			return
		}
		pick := len(q) - 1
		lo := len(q) - localityWindow
		if lo < 0 {
			lo = 0
		}
		for i := len(q) - 1; i >= lo; i-- {
			if g.prefer[q[i]].Load() == me {
				pick = i
				g.localityHits.Add(1)
				break
			}
		}
		id := q[pick]
		g.queue[c] = append(q[:pick], q[pick+1:]...)
		g.mu[c].Unlock()
		g.ready.Add(-1)
		g.exec(id, me)
	}
}

// exec runs one node (skipping its closure when a previous node already
// panicked), then releases its successors and counts completion. The
// completion count reaches the node total on every path, so Run's join
// fires even under cancellation.
func (g *Graph) exec(id NodeID, drainer int32) {
	nd := &g.nodes[id]
	if !g.aborted.Load() {
		g.runNode(nd, id)
	}
	for _, s := range g.succs(id) {
		// Stamp the locality hint before the release decrement so any
		// drainer that sees the node ready also sees a preference (last
		// completing predecessor wins — any producer is a fine hint).
		g.prefer[s].Store(drainer)
		if g.indeg[s].Add(-1) == 0 {
			g.enqueue(s)
		}
	}
	if int(g.completed.Add(1)) == len(g.nodes) {
		close(g.done)
	}
}

func (g *Graph) runNode(nd *gnode, id NodeID) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		tp, ok := r.(*TaskPanic)
		if !ok {
			tp = &TaskPanic{Value: r, Stack: debug.Stack()}
		}
		g.panicked.CompareAndSwap(nil, tp)
		g.aborted.Store(true)
	}()
	if g.spans == nil {
		nd.fn()
		return
	}
	t0 := time.Now()
	nd.fn()
	g.spans[id] = NodeSpan{
		Tag: nd.tag, Arg: nd.arg, Class: nd.class,
		StartNs: int64(t0.Sub(g.start)),
		DurNs:   int64(time.Since(t0)),
	}
}

// SpanUnion returns when the first span with the given tag started (ns
// after the run start) and the union length of all such spans' intervals —
// the wall time during which at least one node of that tag was executing,
// which is what "the duration of a phase" means in a graph schedule.
func SpanUnion(spans []NodeSpan, tag int32) (startNs int64, union time.Duration) {
	var iv [][2]int64
	for _, sp := range spans {
		if sp.Tag == tag && sp.DurNs > 0 {
			iv = append(iv, [2]int64{sp.StartNs, sp.StartNs + sp.DurNs})
		}
	}
	if len(iv) == 0 {
		return 0, 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total := int64(0)
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	total += hi - lo
	return iv[0][0], time.Duration(total)
}

// Stats reports the executed graph's shape and schedule quality. Call
// after Run. CriticalPathNs requires tracing (SetTrace before Run) and
// is 0 otherwise.
func (g *Graph) Stats() GraphStats {
	st := GraphStats{
		Nodes:        len(g.nodes),
		Edges:        len(g.edges),
		MaxReady:     int(g.maxReady.Load()),
		MakespanNs:   g.makespan,
		Start:        g.start,
		LocalityHits: g.localityHits.Load(),
	}
	if g.spans != nil && g.topo != nil {
		st.Spans = g.spans
		// Longest dependency chain under measured durations: finish[i] =
		// dur[i] + max(finish[pred]), propagated in topological order.
		finish := make([]int64, len(g.nodes))
		var cp int64
		for _, id := range g.topo {
			finish[id] += g.spans[id].DurNs
			if finish[id] > cp {
				cp = finish[id]
			}
			for _, s := range g.succs(id) {
				if finish[id] > finish[s] {
					finish[s] = finish[id]
				}
			}
		}
		st.CriticalPathNs = cp
	}
	return st
}
