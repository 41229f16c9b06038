// Package dag assembles one FMM step as a dependency graph over the
// sched task-graph runtime: the one way a solve executes, for every
// kernel, pool size and phase subset.
//
// The graph holds only the step's semantic dependencies — no phase or
// level barriers:
//
//   - an up-sweep chunk at level L depends on the level-L+1 chunks that
//     hold its children (cell-range granularity, so one slow chunk only
//     blocks its own ancestors, not the whole level);
//   - a down-sweep chunk at level L depends on the level-L-1 chunks
//     holding its parents (L2L) and on the up sweep having finished at
//     every level its translated V-list partners live on (M2L reads
//     multipoles; a pair the near-field schedule sums directly reads
//     none; the adaptive dual traversal pairs nodes across levels, so the
//     partner levels are collected per chunk and joined through
//     per-level up milestones);
//   - near-field work (CPU CSR chunks, or the device cluster walk) is
//     an independent root;
//   - a leaf-evaluation (L2P) node depends on its down-sweep chunk and
//     on exactly the near-field nodes that write its leaves' bodies —
//     the only join between the two phases, and a semantic one: L2P is
//     the single far-field write into the body accumulators.
//
// The result's bits do not depend on the schedule, because of the node
// granularity: every multipole/local is computed wholly inside one node
// with a fixed internal operation order, and every body receives its
// near-field contributions in CSR row order plus exactly one L2P
// addition, so no execution interleaving can reorder floating-point
// operations.
package dag

import (
	"sort"

	"afmm/internal/octree"
	"afmm/internal/sched"
)

// Tags carries the caller's span-kind values for the node categories;
// they are stored as the opaque node tag and surface in trace spans.
type Tags struct {
	Up, Down, L2P, Near, Milestone int32
}

// Spec describes one step's DAG. The chunk callbacks are invoked at
// build time with the node ranges and return the closure executed when
// the graph node runs. There is one far-field chain per step: a solver
// with several expansions per cell (Stokes' four harmonic passes) computes
// all of them inside each chunk body.
type Spec struct {
	Tree *octree.Tree
	Pool *sched.Pool

	// Per-node weights steering the far-field chunk boundaries.
	UpWeight   func(ni int32) int64
	DownWeight func(ni int32) int64

	// UpChunk/DownChunk build one far-field chunk body over the given
	// level slice. DownChunk must NOT evaluate L2P (that is the L2P
	// node's job, after the near field converges). Both nil: the far
	// field is skipped and the graph is its near-field roots.
	UpChunk   func(level int, nodes []int32) func()
	DownChunk func(level int, nodes []int32) func()
	// L2P builds the leaf-evaluation body for the given visible leaves
	// (reading their finalized locals). nil skips leaf nodes.
	L2P func(leaves []int32) func()

	// Exactly one of the near-field forms (or neither, when the near
	// field is skipped): NearSingle is one node wrapping the device
	// cluster walk; NearChunk builds one CPU CSR chunk body over rows
	// [lo, hi) of Tree.NearField().
	NearSingle func()
	NearChunk  func(lo, hi int) func()

	Tags Tags
}

// Build assembles the graph. The tree's level order and near-field
// schedule (its rows for NearChunk, its direct masks for the V-list
// edges) are resolved here, on the calling goroutine, so graph nodes only
// read settled caches.
func Build(spec Spec) *sched.Graph {
	g := spec.Pool.NewGraph()
	build(spec, g)
	return g
}

// graph is what build needs of *sched.Graph; the test records nodes and
// edges through it.
type graph interface {
	Node(c sched.Class, tag, arg int32, fn func()) sched.NodeID
	Edge(from, to sched.NodeID)
}

func build(spec Spec, g graph) {
	t := spec.Tree
	pool := spec.Pool
	levels := t.LevelOrder()
	nLevels := len(levels)
	sch := t.NearField()

	// Position of every node within its level slice: children of a
	// contiguous DFS-ordered parent range form a contiguous range at the
	// next level, so chunk-to-chunk dependencies reduce to span overlap.
	pos := make([]int32, len(t.Nodes))
	for _, lvNodes := range levels {
		for i, ni := range lvNodes {
			pos[ni] = int32(i)
		}
	}

	// Near-field roots.
	nearSingle := sched.NodeID(-1)
	var nearIDs []sched.NodeID
	var rowOf, rowChunk []int32
	if spec.NearSingle != nil {
		nearSingle = g.Node(sched.ClassNear, spec.Tags.Near, 0, spec.NearSingle)
	} else if spec.NearChunk != nil {
		if len(sch.Weights) > 0 {
			bounds := pool.WeightedBounds(sched.ClassNear, sch.Weights)
			rowChunk = make([]int32, len(sch.Weights))
			for c := 0; c+1 < len(bounds); c++ {
				lo, hi := bounds[c], bounds[c+1]
				id := g.Node(sched.ClassNear, spec.Tags.Near, int32(c), spec.NearChunk(lo, hi))
				for r := lo; r < hi; r++ {
					rowChunk[r] = int32(len(nearIDs))
				}
				nearIDs = append(nearIDs, id)
			}
			rowOf = make([]int32, len(t.Nodes))
			for i := range rowOf {
				rowOf[i] = -1
			}
			for r, li := range sch.Leaves {
				rowOf[li] = int32(r)
			}
		}
	}

	if spec.UpChunk == nil {
		return
	}

	// Per-level chunk bounds for both sweeps (reservation-aware).
	upBounds := make([][]int, nLevels)
	downBounds := make([][]int, nLevels)
	var wbuf []int64
	weigh := func(nodes []int32, w func(int32) int64) []int64 {
		wbuf = wbuf[:0]
		for _, ni := range nodes {
			wbuf = append(wbuf, w(ni))
		}
		return wbuf
	}
	for lv := 0; lv < nLevels; lv++ {
		if len(levels[lv]) == 0 {
			continue
		}
		upBounds[lv] = pool.WeightedBounds(sched.ClassFar, weigh(levels[lv], spec.UpWeight))
		downBounds[lv] = pool.WeightedBounds(sched.ClassFar, weigh(levels[lv], spec.DownWeight))
	}

	// Up sweep, bottom-up: chunk nodes plus one milestone per level
	// joining the level's chunks (a single-chunk level is its own
	// milestone). The milestones carry the cross-level M2L dependencies.
	upIDs := make([][]sched.NodeID, nLevels)
	upMile := make([]sched.NodeID, nLevels)
	for lv := range upMile {
		upMile[lv] = -1
	}
	for lv := nLevels - 1; lv >= 0; lv-- {
		nodes := levels[lv]
		if len(nodes) == 0 {
			continue
		}
		b := upBounds[lv]
		for c := 0; c+1 < len(b); c++ {
			lo, hi := b[c], b[c+1]
			id := g.Node(sched.ClassFar, spec.Tags.Up, int32(lv), spec.UpChunk(lv, nodes[lo:hi]))
			if lv+1 < nLevels && len(upIDs[lv+1]) > 0 {
				if clo, chi, ok := childSpan(t, pos, nodes[lo:hi]); ok {
					forChunks(upBounds[lv+1], clo, chi+1, func(k int) {
						g.Edge(upIDs[lv+1][k], id)
					})
				}
			}
			upIDs[lv] = append(upIDs[lv], id)
		}
		if len(upIDs[lv]) == 1 {
			upMile[lv] = upIDs[lv][0]
		} else {
			ms := g.Node(sched.ClassFar, spec.Tags.Milestone, int32(lv), func() {})
			for _, id := range upIDs[lv] {
				g.Edge(id, ms)
			}
			upMile[lv] = ms
		}
	}

	// Down sweep, top-down, with the L2P nodes hanging off each level's
	// down chunks.
	downIDs := make([][]sched.NodeID, nLevels)
	vSeen := make([]bool, nLevels)
	var vTouched []int
	for lv := 0; lv < nLevels; lv++ {
		nodes := levels[lv]
		if len(nodes) == 0 {
			continue
		}
		b := downBounds[lv]
		for c := 0; c+1 < len(b); c++ {
			lo, hi := b[c], b[c+1]
			// Levels holding this chunk's translated V-list partners (the
			// adaptive traversal pairs nodes across levels).
			vTouched = vTouched[:0]
			for _, ni := range nodes[lo:hi] {
				direct := t.DirectMask(ni)
				for k, vi := range t.Nodes[ni].V {
					if direct[k] {
						continue
					}
					if pl := int(t.Nodes[vi].Level); !vSeen[pl] {
						vSeen[pl] = true
						vTouched = append(vTouched, pl)
					}
				}
			}
			id := g.Node(sched.ClassFar, spec.Tags.Down, int32(lv), spec.DownChunk(lv, nodes[lo:hi]))
			if lv > 0 && len(downIDs[lv-1]) > 0 {
				plo, phi, ok := parentSpan(t, pos, nodes[lo:hi])
				if ok {
					forChunks(downBounds[lv-1], plo, phi+1, func(k int) {
						g.Edge(downIDs[lv-1][k], id)
					})
				}
			}
			for _, pl := range vTouched {
				if upMile[pl] >= 0 {
					g.Edge(upMile[pl], id)
				}
				vSeen[pl] = false
			}
			downIDs[lv] = append(downIDs[lv], id)
			if spec.L2P == nil {
				continue
			}
			var leaves []int32
			for _, ni := range nodes[lo:hi] {
				if t.Nodes[ni].IsVisibleLeaf() {
					leaves = append(leaves, ni)
				}
			}
			if len(leaves) == 0 {
				continue
			}
			l2p := g.Node(sched.ClassFar, spec.Tags.L2P, int32(lv), spec.L2P(leaves))
			g.Edge(id, l2p)
			switch {
			case nearSingle >= 0:
				g.Edge(nearSingle, l2p)
			case nearIDs != nil:
				// Depend on exactly the near chunks whose CSR rows write
				// these leaves' bodies (rows are target-leaf-major).
				last := int32(-1)
				for _, li := range leaves {
					r := rowOf[li]
					if r < 0 {
						continue
					}
					if k := rowChunk[r]; k != last {
						g.Edge(nearIDs[k], l2p)
						last = k
					}
				}
			}
		}
	}
}

// childSpan returns the position span (inclusive) at level lv+1 covered
// by the children of the given level-lv nodes; ok is false when no node
// has an occupied child.
func childSpan(t *octree.Tree, pos []int32, nodes []int32) (lo, hi int, ok bool) {
	lo, hi = 1<<30, -1
	for _, ni := range nodes {
		for _, ci := range t.Nodes[ni].Children {
			if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
				p := int(pos[ci])
				if p < lo {
					lo = p
				}
				if p > hi {
					hi = p
				}
			}
		}
	}
	return lo, hi, hi >= 0
}

// parentSpan returns the position span (inclusive) at level lv-1 covered
// by the parents of the given level-lv nodes.
func parentSpan(t *octree.Tree, pos []int32, nodes []int32) (lo, hi int, ok bool) {
	lo, hi = 1<<30, -1
	for _, ni := range nodes {
		if pi := t.Nodes[ni].Parent; pi != octree.NilNode {
			p := int(pos[pi])
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
	}
	return lo, hi, hi >= 0
}

// forChunks invokes f(k) for every chunk k of bounds whose range
// [bounds[k], bounds[k+1]) intersects [lo, hi).
func forChunks(bounds []int, lo, hi int, f func(k int)) {
	if len(bounds) < 2 || lo >= hi {
		return
	}
	k0 := sort.SearchInts(bounds, lo+1) - 1
	if k0 < 0 {
		k0 = 0
	}
	k1 := sort.SearchInts(bounds, hi) - 1
	if k1 > len(bounds)-2 {
		k1 = len(bounds) - 2
	}
	for k := k0; k <= k1; k++ {
		f(k)
	}
}
