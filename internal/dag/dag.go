// Package dag assembles one FMM step as a dependency graph over the
// sched task-graph runtime: the one way a solve executes, for every
// kernel, pool size and phase subset — on one node, where the graph
// computes the whole tree, and on a dmem cluster, where one graph holds
// every node's Share of it.
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
//   - near-field work runs in the tree's chunks (octree.NearChunks
//     contiguous row ranges, NearSchedule.Chunk), independent roots;
//   - a leaf node depends on exactly the near chunks that write its
//     leaves' bodies: the chunk of each leaf's own row and every chunk
//     holding a reaction for it (every kernel's near field is mutual). It folds those
//     reactions in, then (with the far field) evaluates L2P after its
//     down-sweep chunk — the only join between the two phases, and a
//     semantic one: L2P is the single far-field write into the body
//     accumulators;
//   - whatever a chunk reads from outside the share depends on the
//     caller's node that delivers it (Share).
//
// The result's bits do not depend on the schedule, because of the node
// granularity: every multipole/local is computed wholly inside one node
// with a fixed internal operation order, and every body receives its
// near field in an order the tree alone fixes — its own row's upper half
// in row order, then its reaction slots in chunk order, each summed
// inside one chunk in pair order — plus exactly one L2P addition, so no
// pool size, node count or execution interleaving can reorder
// floating-point operations.
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

// Share is the part of the tree one graph computes: the cells whose first
// body lies in [Lo, Hi) and the near-field rows of the leaves among them
// (no visible leaf straddles a bound). Level slices and schedule rows are
// in DFS order, so a share is one contiguous run of each; the whole tree is
// the share [0, N).
//
// What a share reads across its edge — a remote child's or translated V
// partner's multipole, a remote parent's local, a remote near-field
// source's bodies — becomes readable when a node the caller created in the
// same graph has run (a dmem node's unpacks). Mpole, Local and Ghost give
// that node per tree cell; they are read only at cells outside the share.
type Share struct {
	Lo, Hi              int32
	Mpole, Local, Ghost []sched.NodeID
}

// Spec describes one step's DAG. The chunk callbacks are invoked at
// build time with the node ranges and return the closure executed when
// the graph node runs. There is one far-field chain per step: a solver
// with several expansions per cell (Stokes' four harmonic passes) computes
// all of them inside each chunk body.
type Spec struct {
	Tree *octree.Tree
	// Pool sizes the chunks (its worker count); the graph may run on
	// another pool.
	Pool  *sched.Pool
	Share Share

	// UpChunk/DownChunk build one far-field chunk body over the given
	// run of one level's cells. DownChunk must NOT evaluate L2P (that is
	// the L2P node's job, after the near field converges). Both nil: the
	// far field is skipped and the graph is its near-field roots.
	UpChunk   func(nodes []int32) func()
	DownChunk func(nodes []int32) func()
	// L2P builds the leaf body for the given visible leaves: the near
	// field's fold, then (with the far field) the evaluation of their
	// finalized locals. nil skips leaf nodes.
	L2P func(leaves []int32) func()

	// NearChunk builds the body of near chunk c of Tree.NearField() for
	// the share's body range [lo, hi); nil skips the near field. The near
	// chunks are mutual: a chunk also writes the reactions of its rows'
	// upper partners (a share's chunk runs for another share's row with a
	// partner here), and the leaf nodes fold them — they wait for every
	// chunk holding a reaction for their leaves, and a near-only graph
	// gets leaf nodes for the fold alone.
	NearChunk func(c int, lo, hi int32) func()

	Tags Tags
}

// Done names, per tree level, the chunk nodes after which the share's
// multipoles (Up) and locals (Down) of that level are final: what a
// caller's send of them waits for.
type Done struct {
	Up, Down [][]sched.NodeID
}

// Build adds the spec's nodes and edges to g. The tree's level order and
// near-field schedule (its chunks for NearChunk, its direct masks for the
// V-list edges) are resolved here, on the calling goroutine, so graph nodes
// only read settled caches.
func Build(spec Spec, g *sched.Graph) Done { return build(spec, g) }

// graph is what build needs of *sched.Graph; the test records nodes and
// edges through it.
type graph interface {
	Node(c sched.Class, tag, arg int32, fn func()) sched.NodeID
	Edge(from, to sched.NodeID)
}

func build(spec Spec, g graph) Done {
	t := spec.Tree
	pool := spec.Pool
	sh := spec.Share
	sch := t.NearField()
	own := func(ni int32) bool {
		s := t.Nodes[ni].Start
		return sh.Lo <= s && s < sh.Hi
	}
	// clip returns the run of DFS-ordered cells the share owns.
	clip := func(cells []int32) (lo, hi int) {
		first := func(b int32) int {
			return sort.Search(len(cells), func(i int) bool { return t.Nodes[cells[i]].Start >= b })
		}
		return first(sh.Lo), first(sh.Hi)
	}
	// arrive orders node id after arrival node a, once however many of the
	// remote cells id reads a delivers (seen[a] is a's latest consumer).
	var seen []sched.NodeID
	arrive := func(a, id sched.NodeID) {
		for int(a) >= len(seen) {
			seen = append(seen, -1)
		}
		if seen[a] != id {
			seen[a] = id
			g.Edge(a, id)
		}
	}

	// Position of every owned node within its level's run: children of a
	// contiguous DFS-ordered parent range form a contiguous range at the
	// next level, so chunk-to-chunk dependencies reduce to span overlap.
	levels := append([][]int32(nil), t.LevelOrder()...)
	nLevels := len(levels)
	pos := make([]int32, len(t.Nodes))
	for lv, nodes := range levels {
		lo, hi := clip(nodes)
		levels[lv] = nodes[lo:hi]
		for i, ni := range levels[lv] {
			pos[ni] = int32(i)
		}
	}

	// Near-field nodes, one per tree chunk the share has work in: its own
	// rows, or another share's rows with a partner here to react on. Roots,
	// except that a chunk waits for the remote bodies it reads.
	var nearIDs [octree.NearChunks]sched.NodeID
	// leafNear returns the near chunks that write leaf li's bodies, as a
	// set of chunk bits.
	leafNear := func(li int32) (set uint32) {
		r := sch.RowOf(li)
		if spec.NearChunk == nil || r < 0 {
			return 0
		}
		chunks, _ := sch.Fold(r)
		for _, c := range chunks {
			set |= 1 << c
		}
		return set | 1<<sort.Search(octree.NearChunks, func(c int) bool { return int(sch.Chunks[c+1]) > r })
	}
	nearEdges := func(set uint32, to sched.NodeID) {
		for c := range octree.NearChunks {
			if set&(1<<c) != 0 {
				g.Edge(nearIDs[c], to)
			}
		}
	}
	if spec.NearChunk != nil {
		for c := range octree.NearChunks {
			nearIDs[c] = -1
			lo, hi := sch.Chunk(c)
			var id sched.NodeID = -1
			node := func() {
				if id < 0 {
					id = g.Node(sched.ClassNear, spec.Tags.Near, int32(c), spec.NearChunk(c, sh.Lo, sh.Hi))
				}
			}
			for r := lo; r < hi; r++ {
				a := sch.Leaves[r]
				if own(a) {
					node()
					for _, si := range sch.Row(r) {
						if !own(si) {
							arrive(sh.Ghost[si], id)
						}
					}
					continue
				}
				for k := sch.Upper[r] + 1; k < sch.RowPtr[r+1]; k++ {
					if own(sch.Srcs[k]) {
						node()
						arrive(sh.Ghost[a], id)
						break
					}
				}
			}
			nearIDs[c] = id
		}
	}

	if spec.UpChunk == nil {
		// Near only: a leaf node per near chunk folds its rows' leaves.
		if spec.L2P == nil || spec.NearChunk == nil {
			return Done{}
		}
		rLo, rHi := clip(sch.Leaves)
		for c := range octree.NearChunks {
			lo, hi := sch.Chunk(c)
			lo, hi = max(lo, rLo), min(hi, rHi)
			if lo >= hi {
				continue
			}
			leaves := sch.Leaves[lo:hi:hi]
			id := g.Node(sched.ClassNear, spec.Tags.Near, int32(c), spec.L2P(leaves))
			var set uint32
			for _, li := range leaves {
				set |= leafNear(li)
			}
			nearEdges(set, id)
		}
		return Done{}
	}

	// Per-level chunk bounds for both sweeps, and the share's visible
	// leaves, which the L2P nodes take as subslices of one buffer.
	upBounds := make([][]int, nLevels)
	downBounds := make([][]int, nLevels)
	var wbuf []int64
	nLeaves := 0
	weigh := func(nodes []int32, w func(*octree.Tree, int32) int64) []int64 {
		wbuf = wbuf[:0]
		for _, ni := range nodes {
			wbuf = append(wbuf, w(t, ni))
		}
		return wbuf
	}
	for lv := 0; lv < nLevels; lv++ {
		if len(levels[lv]) == 0 {
			continue
		}
		upBounds[lv] = pool.WeightedBounds(weigh(levels[lv], upWeight))
		downBounds[lv] = pool.WeightedBounds(weigh(levels[lv], downWeight))
		for _, ni := range levels[lv] {
			if t.Nodes[ni].IsVisibleLeaf() {
				nLeaves++
			}
		}
	}
	leafBuf := make([]int32, 0, nLeaves)

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
			id := g.Node(sched.ClassFar, spec.Tags.Up, int32(lv), spec.UpChunk(nodes[lo:hi]))
			remote := func(ci int32) { arrive(sh.Mpole[ci], id) }
			clo, chi, ok := childSpan(t, pos, nodes[lo:hi], own, remote)
			if ok && lv+1 < nLevels && len(upIDs[lv+1]) > 0 {
				forChunks(upBounds[lv+1], clo, chi+1, func(k int) {
					g.Edge(upIDs[lv+1][k], id)
				})
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
	// down chunks. vSeen[pl] is the latest chunk ordered after level pl's
	// up milestone.
	downIDs := make([][]sched.NodeID, nLevels)
	vSeen := make([]sched.NodeID, nLevels)
	for lv := range vSeen {
		vSeen[lv] = -1
	}
	for lv := 0; lv < nLevels; lv++ {
		nodes := levels[lv]
		b := downBounds[lv]
		for c := 0; c+1 < len(b); c++ {
			lo, hi := b[c], b[c+1]
			id := g.Node(sched.ClassFar, spec.Tags.Down, int32(lv), spec.DownChunk(nodes[lo:hi]))
			remote := func(pi int32) { arrive(sh.Local[pi], id) }
			if plo, phi, ok := parentSpan(t, pos, nodes[lo:hi], own, remote); ok {
				forChunks(downBounds[lv-1], plo, phi+1, func(k int) {
					g.Edge(downIDs[lv-1][k], id)
				})
			}
			// Translated V-list partners (the adaptive traversal pairs nodes
			// across levels): owned ones are final at their level's up
			// milestone, remote ones at their arrival.
			for _, ni := range nodes[lo:hi] {
				direct := t.DirectMask(ni)
				for k, vi := range t.Nodes[ni].V {
					if direct[k] {
						continue
					}
					if !own(vi) {
						arrive(sh.Mpole[vi], id)
					} else if pl := t.Nodes[vi].Level; vSeen[pl] != id {
						vSeen[pl] = id
						g.Edge(upMile[pl], id)
					}
				}
			}
			downIDs[lv] = append(downIDs[lv], id)
			if spec.L2P == nil {
				continue
			}
			first := len(leafBuf)
			for _, ni := range nodes[lo:hi] {
				if t.Nodes[ni].IsVisibleLeaf() {
					leafBuf = append(leafBuf, ni)
				}
			}
			leaves := leafBuf[first:len(leafBuf):len(leafBuf)]
			if len(leaves) == 0 {
				continue
			}
			l2p := g.Node(sched.ClassFar, spec.Tags.L2P, int32(lv), spec.L2P(leaves))
			g.Edge(id, l2p)
			var set uint32
			for _, li := range leaves {
				set |= leafNear(li)
			}
			nearEdges(set, l2p)
		}
	}
	return Done{Up: upIDs, Down: downIDs}
}

// Rough per-node work weights for chunking a level. The constants only
// steer chunk boundaries; they need no calibration against the cost model,
// and the field's width scales every node equally, so it drops out.
const (
	m2lWeight = 12 // one M2L translation ~ this many per-body endpoint ops
	m2mWeight = 4  // one M2M/L2L translation
)

func upWeight(t *octree.Tree, ni int32) int64 {
	n := &t.Nodes[ni]
	if n.IsVisibleLeaf() {
		return int64(n.Count()) + 1
	}
	return 8*m2mWeight + 1
}

// downWeight weighs the translated pairs of the V list: entries the
// near-field schedule sums directly cost the far field nothing.
func downWeight(t *octree.Tree, ni int32) int64 {
	n := &t.Nodes[ni]
	w := int64(t.FarPairs(ni))*m2lWeight + m2mWeight + 1
	if n.IsVisibleLeaf() {
		w += int64(n.Count())
	}
	return w
}

// childSpan returns the position span (inclusive) at level lv+1 covered
// by the owned children of the given level-lv nodes, and reports each
// remote child; ok is false when no node has an occupied owned child. (A
// collapsed leaf's hidden children count as owned, at position 0.)
func childSpan(t *octree.Tree, pos []int32, nodes []int32, own func(int32) bool, remote func(int32)) (lo, hi int, ok bool) {
	lo, hi = 1<<30, -1
	for _, ni := range nodes {
		n := &t.Nodes[ni]
		for _, ci := range n.Children {
			if ci == octree.NilNode || t.Nodes[ci].Count() == 0 {
				continue
			}
			if !n.IsVisibleLeaf() && !own(ci) {
				remote(ci)
				continue
			}
			p := int(pos[ci])
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

// parentSpan returns the position span (inclusive) at level lv-1 covered
// by the owned parents of the given level-lv nodes, and reports each
// remote parent.
func parentSpan(t *octree.Tree, pos []int32, nodes []int32, own func(int32) bool, remote func(int32)) (lo, hi int, ok bool) {
	lo, hi = 1<<30, -1
	for _, ni := range nodes {
		pi := t.Nodes[ni].Parent
		if pi == octree.NilNode {
			continue
		}
		if !own(pi) {
			remote(pi)
			continue
		}
		p := int(pos[pi])
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
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
