// Package vcpu simulates the multicore CPU side of the paper's
// heterogeneous node. The host running this reproduction may have a single
// core, so CPU times for the experiments come from a discrete-event replay
// of the far-field task graph — the same per-node task recursion the
// OpenMP implementation spawns — onto k virtual cores:
//
//   - the up sweep contributes one task per visible node (P2M at leaves,
//     M2M at parents) with child-before-parent precedence;
//   - the down sweep contributes one task per visible node (M2L over the
//     node's V list, L2L from the parent, L2P at leaves) with
//     parent-before-child precedence;
//   - tasks are dispatched greedily to the earliest-free core, modelling a
//     work-stealing scheduler near its Brent-bound behaviour, plus a fixed
//     per-task spawn overhead;
//   - per-core throughput includes a small shared-L3 gain as sockets are
//     added (the paper's superlinear region up to 16 cores) and a
//     memory-bandwidth penalty beyond, reproducing the Figure 6 shape.
package vcpu

import (
	"math"

	"afmm/internal/costmodel"
	"afmm/internal/octree"
)

// Spec describes the virtual CPU subsystem.
type Spec struct {
	Cores int
	// Base single-core per-application costs in seconds for the five
	// far-field operations, plus the CPU cost of one P2P interaction
	// (used when the configuration has no GPUs, e.g. the serial
	// baseline of Figure 7).
	Base costmodel.Coefficients
	// SpawnOverhead is charged once per task (OpenMP task creation).
	SpawnOverhead float64
	// CacheGain scales per-core speed up as cores grow to 16 (shared L3
	// across sockets lets expansions be reused; paper §VIII.C).
	CacheGain float64
	// BandwidthPenalty slows per-core speed beyond 16 cores (memory
	// system saturation; paper §VIII.C).
	BandwidthPenalty float64
}

// DefaultSpec returns a Xeon X5670-like core model at expansion order ~8.
func DefaultSpec() Spec {
	var base costmodel.Coefficients
	base[costmodel.P2M] = 180e-9 // per body
	base[costmodel.M2M] = 2.2e-6 // per translation
	base[costmodel.M2L] = 2.8e-6 // per translation
	base[costmodel.L2L] = 2.2e-6 // per translation
	base[costmodel.L2P] = 320e-9 // per body (potential + gradient)
	base[costmodel.P2P] = 4.0e-9 // per interaction on a CPU core
	return Spec{
		Cores:            1,
		Base:             base,
		SpawnOverhead:    0.6e-6,
		CacheGain:        0.06,
		BandwidthPenalty: 0.35,
	}
}

// Normalized returns the spec with zero-valued fields replaced by the
// defaults, so callers may set only the fields they care about (typically
// Cores).
func (s Spec) Normalized() Spec {
	d := DefaultSpec()
	if s.Cores < 1 {
		s.Cores = 1
	}
	allZero := true
	for _, c := range s.Base {
		if c != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		s.Base = d.Base
	}
	if s.SpawnOverhead == 0 {
		s.SpawnOverhead = d.SpawnOverhead
	}
	if s.CacheGain == 0 {
		s.CacheGain = d.CacheGain
	}
	if s.BandwidthPenalty == 0 {
		s.BandwidthPenalty = d.BandwidthPenalty
	}
	return s
}

// PerCoreFactor returns the multiplier applied to task costs when k cores
// are active: < 1 in the cache-gain region, > 1 deep in the
// bandwidth-saturated region.
func (s Spec) PerCoreFactor(k int) float64 {
	if k < 1 {
		k = 1
	}
	gain := 1 - s.CacheGain*math.Min(float64(k-1), 15)/15
	pen := 1 + s.BandwidthPenalty*math.Max(0, float64(k-16))/16
	return gain * pen
}

// TaskCost attributes a task's seconds to the operations it performs, so
// coefficient observation can split a node task into its P2M/M2M/M2L/L2L/
// L2P/P2P portions.
type TaskCost [costmodel.NumOps]float64

// Total returns the summed task cost.
func (c TaskCost) Total() float64 {
	var t float64
	for _, v := range c {
		t += v
	}
	return t
}

// Graph is a task DAG with per-task costs and op attribution. Edges live
// in flat arrays, so a graph grows by amortized appends rather than one
// successor slice per task: first[t] and last[t] are task t's first and
// last out-edge, next[e] the edge after e from the same task (-1 ends a
// list), to[e] its successor. A task's edges keep the order they were
// added in.
type Graph struct {
	cost        []TaskCost
	indeg       []int32
	first, last []int32
	to, next    []int32
}

// AddTask appends a task and returns its id.
func (g *Graph) AddTask(cost TaskCost) int32 {
	g.cost = append(g.cost, cost)
	g.indeg = append(g.indeg, 0)
	g.first = append(g.first, -1)
	g.last = append(g.last, -1)
	return int32(len(g.cost) - 1)
}

// AddDep declares that task a must complete before task b starts.
func (g *Graph) AddDep(a, b int32) {
	e := int32(len(g.to))
	g.to = append(g.to, b)
	g.next = append(g.next, -1)
	if g.last[a] < 0 {
		g.first[a] = e
	} else {
		g.next[g.last[a]] = e
	}
	g.last[a] = e
	g.indeg[b]++
}

// Len returns the task count.
func (g *Graph) Len() int { return len(g.cost) }

// Result of a schedule replay.
type Result struct {
	Makespan float64
	// BusyTime is the summed task execution time across cores (excluding
	// idle), per operation.
	BusyTime [costmodel.NumOps]float64
	// TotalBusy is the sum of BusyTime.
	TotalBusy float64
	// Tasks executed.
	Tasks int
}

// Efficiency returns parallel efficiency busy/(makespan*cores).
func (r Result) Efficiency(cores int) float64 {
	if r.Makespan <= 0 || cores <= 0 {
		return 1
	}
	return r.TotalBusy / (r.Makespan * float64(cores))
}

type completion struct {
	at   float64
	task int32
}

// completionHeap is a min-heap on at. It sifts exactly as container/heap
// does — the same comparisons and swaps in the same order — so ties pop in
// the same order and every modeled number is what the boxed heap gave,
// without boxing a completion on each push and pop.
type completionHeap []completion

func (h *completionHeap) push(c completion) {
	*h = append(*h, c)
	q := *h
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].at < q[i].at) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *completionHeap) pop() completion {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].at < q[j1].at {
			j = j2 // right child
		}
		if !(q[j].at < q[i].at) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// Simulate replays the graph on the machine and returns the makespan and
// busy-time attribution. Ready tasks are dispatched LIFO (depth-first, the
// locality order a work-stealing runtime tends toward) to free cores.
func (s Spec) Simulate(g *Graph) Result {
	k := s.Cores
	if k < 1 {
		k = 1
	}
	factor := s.PerCoreFactor(k)
	var res Result
	n := g.Len()
	if n == 0 {
		return res
	}
	indeg := append([]int32(nil), g.indeg...)
	ready := make([]int32, 0, n)
	for i := int32(0); i < int32(n); i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	running := make(completionHeap, 0, k)
	clock := 0.0
	free := k
	done := 0
	for done < n {
		for free > 0 && len(ready) > 0 {
			t := ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			dur := s.SpawnOverhead
			for op, c := range g.cost[t] {
				scaled := c * factor
				res.BusyTime[op] += scaled
				dur += scaled
			}
			res.TotalBusy += dur
			running.push(completion{at: clock + dur, task: t})
			free--
		}
		if len(running) == 0 {
			break // disconnected or cyclic graph; should not happen
		}
		c := running.pop()
		clock = c.at
		free++
		done++
		for e := g.first[c.task]; e >= 0; e = g.next[e] {
			nxt := g.to[e]
			indeg[nxt]--
			if indeg[nxt] == 0 {
				ready = append(ready, nxt)
			}
		}
	}
	res.Makespan = clock
	res.Tasks = done
	return res
}

// FMMGraphOptions selects what the graph models.
type FMMGraphOptions struct {
	// IncludeP2P adds the near-field as per-leaf CPU tasks in the down
	// phase — used for CPU-only configurations (no GPUs).
	IncludeP2P bool
	// FarFieldPasses multiplies expansion work (the Stokes solver runs
	// four harmonic FMM passes; gravity runs one). Zero means one.
	FarFieldPasses int
	// P2PCostFactor scales the per-interaction CPU P2P cost relative to
	// the gravity kernel (e.g. the regularized Stokeslet is ~1.7x).
	P2PCostFactor float64
	// ExcludeEndpoints removes the P2M and L2P costs from the graph (the
	// §VIII.E extension offloads them to the devices).
	ExcludeEndpoints bool
}

// BuildFMMGraph constructs the up/down far-field task DAG of the current
// visible tree with costs from base coefficients. BuildLists must have run.
func BuildFMMGraph(t *octree.Tree, base costmodel.Coefficients, opt FMMGraphOptions) *Graph {
	return BuildNodeGraphs(t, []costmodel.Coefficients{base}, nil, opt)[0]
}

// BuildNodeGraphs splits BuildFMMGraph's DAG over the nodes of a
// distributed machine: graph k holds the tasks of the cells with
// owner[ni] == k, costed with bases[k], and the edges between them (the
// dependences that cross nodes are the exchange's, not a core's). A nil
// owner gives every cell to graph 0, whose graph is then BuildFMMGraph's.
func BuildNodeGraphs(t *octree.Tree, bases []costmodel.Coefficients, owner []int, opt FMMGraphOptions) []*Graph {
	passes := float64(opt.FarFieldPasses)
	if passes < 1 {
		passes = 1
	}
	p2pf := opt.P2PCostFactor
	if p2pf <= 0 {
		p2pf = 1
	}
	graphs := make([]*Graph, len(bases))
	for k := range graphs {
		graphs[k] = &Graph{}
	}
	own := func(ni int32) int {
		if owner == nil {
			return 0
		}
		return owner[ni]
	}
	// up[ni] and down[ni] are cell ni's task ids in its owner's graph.
	up := make([]int32, len(t.Nodes))
	down := make([]int32, len(t.Nodes))
	// The near-field costs come from the cached CSR schedule (its U-list
	// weights: the virtual machine keeps the paper's operator assignment,
	// every V pair a translation); its rows are the visible leaves in DFS
	// order, which is exactly the order buildDown reaches them, so a
	// running row index suffices.
	var sch *octree.NearSchedule
	var row int
	if opt.IncludeP2P {
		sch = t.NearField()
	}

	// Up-sweep tasks: children before parents.
	var buildUp func(ni int32)
	buildUp = func(ni int32) {
		n := &t.Nodes[ni]
		k := own(ni)
		base := &bases[k]
		var tc TaskCost
		if n.IsVisibleLeaf() {
			if !opt.ExcludeEndpoints {
				tc[costmodel.P2M] = passes * base[costmodel.P2M] * float64(n.Count())
			}
			up[ni] = graphs[k].AddTask(tc)
			return
		}
		kids := 0
		for _, ci := range n.Children {
			if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
				buildUp(ci)
				kids++
			}
		}
		tc[costmodel.M2M] = passes * base[costmodel.M2M] * float64(kids)
		up[ni] = graphs[k].AddTask(tc)
		for _, ci := range n.Children {
			if ci != octree.NilNode && t.Nodes[ci].Count() > 0 && own(ci) == k {
				graphs[k].AddDep(up[ci], up[ni])
			}
		}
	}
	buildUp(t.Root)

	// Down-sweep tasks: parents before children; the whole down phase
	// starts after the up phase completes (phase barrier).
	var buildDown func(ni int32)
	buildDown = func(ni int32) {
		n := &t.Nodes[ni]
		k := own(ni)
		base := &bases[k]
		var tc TaskCost
		tc[costmodel.M2L] = passes * base[costmodel.M2L] * float64(len(n.V))
		if n.Parent != octree.NilNode {
			tc[costmodel.L2L] = passes * base[costmodel.L2L]
		}
		if n.IsVisibleLeaf() {
			if !opt.ExcludeEndpoints {
				tc[costmodel.L2P] = passes * base[costmodel.L2P] * float64(n.Count())
			}
			if opt.IncludeP2P {
				tc[costmodel.P2P] = p2pf * base[costmodel.P2P] * float64(sch.Priced(row))
				row++
			}
		}
		g := graphs[k]
		down[ni] = g.AddTask(tc)
		switch {
		case n.Parent == octree.NilNode:
			g.AddDep(up[ni], down[ni])
		case own(n.Parent) == k:
			g.AddDep(down[n.Parent], down[ni])
		}
		if !n.IsVisibleLeaf() {
			for _, ci := range n.Children {
				if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
					buildDown(ci)
				}
			}
		}
	}
	if t.Nodes[t.Root].Count() > 0 {
		buildDown(t.Root)
	}
	return graphs
}
