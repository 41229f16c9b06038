package octree

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// sqrt3 is the half-diagonal factor of a cube: the bounding-sphere radius
// of a cell with half-width h is sqrt(3)*h.
var sqrt3 = math.Sqrt(3)

// ListStats counts interaction-list construction activity over the tree's
// lifetime: how often BuildLists ran the full dual traversal, performed a
// local repair, or skipped work entirely because the cached lists were
// already current, plus the cumulative dual-traversal pair visits those
// builds executed.
//
// Contract: the counters are cumulative and monotone over the tree's
// lifetime. They survive Rebuild — the balancer's Search and Incremental
// states rebuild the tree mid-trajectory, and zeroing there would erase
// history a per-step consumer is about to difference. Per-step consumers
// (the solvers, the benchmark's trace) snapshot before and after and call
// Sub.
type ListStats struct {
	FullBuilds int
	Repairs    int
	Skips      int
	// Pairs is the cumulative dual-traversal pair-visit count across full
	// builds and repairs (skips add nothing) — the work the balancer's
	// LBCostModel charges for.
	Pairs int64
}

// Sub returns the activity between the prev snapshot and s (s.Sub(prev)).
func (s ListStats) Sub(prev ListStats) ListStats {
	return ListStats{
		FullBuilds: s.FullBuilds - prev.FullBuilds,
		Repairs:    s.Repairs - prev.Repairs,
		Skips:      s.Skips - prev.Skips,
		Pairs:      s.Pairs - prev.Pairs,
	}
}

// ListWork describes the list work performed by the most recent BuildLists
// call: whether it was a full rebuild and how many dual-traversal pair
// visits it executed (zero for a skip). The balancer charges list cost
// proportional to Pairs, so Observation-state steps — where lists are
// reused unchanged — are charged nothing.
type ListWork struct {
	Full  bool
	Pairs int64
}

// ListBuildStats returns the cumulative list-construction counters (see
// the ListStats contract: cumulative across Rebuild).
func (t *Tree) ListBuildStats() ListStats { return t.listStats }

// LastListWork returns the work done by the most recent BuildLists call.
func (t *Tree) LastListWork() ListWork { return t.lastWork }

// ListEpoch identifies the current list topology; it increments on every
// full build or repair. Consumers caching derived structures (such as the
// near-field schedule) key on it.
func (t *Tree) ListEpoch() uint64 { return t.listEpoch }

// maxDirtyRoots floors the dirty-root cap: once an edit batch accumulates
// more dirty subtree roots than max(maxDirtyRoots, nodes/8), the next
// BuildLists falls back to a full rebuild. The cap scales with the arena
// because an Enforce_S sweep over a large tree legitimately edits
// hundreds of leaves whose subtrees are each a handful of nodes — cheap
// to repair; the real cost guard is the stamped-subtree size check in
// repairLists.
const maxDirtyRoots = 128

func (t *Tree) dirtyRootCap() int {
	if c := len(t.Nodes) / 8; c > maxDirtyRoots {
		return c
	}
	return maxDirtyRoots
}

// markListsDirty records that the subtree under ni was structurally edited
// (Collapse/PushDown) or flipped occupancy, scheduling a local list repair
// for the next BuildLists. No-op when lists were never built, are already
// fully dirty, or caching is disabled.
func (t *Tree) markListsDirty(ni int32) {
	if !t.listsBuilt || t.listsFullDirty || t.Cfg.NoListCache {
		return
	}
	t.dirtyRoots = append(t.dirtyRoots, ni)
	if len(t.dirtyRoots) > t.dirtyRootCap() {
		t.listsFullDirty = true
		t.dirtyRoots = t.dirtyRoots[:0]
	}
}

// noteRefillOccupancy runs after Refill rebinned the bodies: the dual
// traversal prunes empty subtrees, so any node whose Count()==0 status
// flipped since the lists were built changes the traversal topology. Each
// maximal flipped node is marked as a dirty root (its whole subtree
// entered or left the traversal); unflipped interior nodes are descended
// since a deeper flip may hide beneath them.
func (t *Tree) noteRefillOccupancy() {
	if !t.listsBuilt || t.listsFullDirty || t.Cfg.NoListCache {
		return
	}
	var walk func(ni int32)
	walk = func(ni int32) {
		zero := t.Nodes[ni].Count() == 0
		if int(ni) >= len(t.listZero) || zero != t.listZero[ni] {
			t.markListsDirty(ni)
			return
		}
		if zero {
			return // empty before and after: nothing below can have flipped
		}
		n := &t.Nodes[ni]
		if n.IsVisibleLeaf() {
			return
		}
		for _, ci := range n.Children {
			if ci != NilNode {
				walk(ci)
			}
		}
	}
	walk(t.Root)
}

// BuildLists ensures the interaction lists of the current visible tree are
// up to date. With the persistent-list cache (the default) this is
// incremental: a step with no structural edits skips all dual-traversal
// work, a step after local Collapse/PushDown edits repairs only the lists
// that reference the edited subtrees, and only a Rebuild (or an oversized
// edit batch) triggers the full traversal. RebuildLists forces the full
// traversal unconditionally; see that function for the traversal itself.
func (t *Tree) BuildLists() {
	if t.Cfg.NoListCache || !t.listsBuilt || t.listsFullDirty {
		t.RebuildLists()
		return
	}
	if len(t.dirtyRoots) == 0 {
		t.listStats.Skips++
		t.lastWork = ListWork{}
		return
	}
	t.repairLists()
}

// RebuildLists computes the interaction lists from scratch by dual
// traversal: for every ordered pair of visible nodes reached from
// (root, root), a well-separated pair contributes the source to the
// target's V list (consumed by M2L in the down sweep); a pair of adjacent
// visible leaves contributes to the target's U list (consumed by P2P on
// the device). The larger node of a non-separated pair is expanded, so
// M2L pairs may join nodes of different levels — the adaptive analogue of
// the classical V list.
//
// Separation uses the multipole acceptance criterion
//
//	MAC * dist(centers) > sqrt(3) * (halfA + halfB)
//
// which bounds the expansion convergence ratio by MAC/(2-MAC) in the worst
// corner case, uniformly over unequal-size pairs (unlike the classical
// same-level adjacency rule, which is only safe for equal cells).
//
// Lists are stored in ascending node order, so incremental repair
// reproduces a from-scratch build exactly, element for element.
func (t *Tree) RebuildLists() {
	t.listStats.FullBuilds++
	t.listEpoch++
	t.farFull = true
	t.listsFullDirty = false
	t.dirtyRoots = t.dirtyRoots[:0]
	// Reset lists, keeping capacity.
	for i := range t.Nodes {
		t.Nodes[i].U = t.Nodes[i].U[:0]
		t.Nodes[i].V = t.Nodes[i].V[:0]
	}
	var visits int64
	root := &t.Nodes[t.Root]
	if root.Count() > 0 {
		// The traversal only ever appends to the *target* node's lists, so
		// splitting on the target side yields disjoint writes: the top-level
		// target subtrees can run as parallel tasks (the paper's "parallel in
		// space" construction applied to list building).
		if pool := t.Cfg.Pool; pool != nil && !root.IsVisibleLeaf() &&
			root.Count() >= t.Cfg.ParallelCutoff {
			g := pool.NewGroup()
			for _, ci := range root.Children {
				if ci != NilNode && t.Nodes[ci].Count() > 0 {
					ci := ci
					g.Spawn(func() {
						var local int64
						t.dual(ci, t.Root, &local)
						atomic.AddInt64(&visits, local)
					})
				}
			}
			g.Wait()
		} else {
			t.dual(t.Root, t.Root, &visits)
		}
	}
	// Canonical ascending order (see doc comment).
	for i := range t.Nodes {
		slices.Sort(t.Nodes[i].U)
		slices.Sort(t.Nodes[i].V)
	}
	t.lastWork = ListWork{Full: true, Pairs: visits}
	t.listStats.Pairs += visits
	// With caching disabled the maintenance structures are not kept, so the
	// build must not register as reusable.
	t.listsBuilt = !t.Cfg.NoListCache
	if t.listsBuilt {
		t.rebuildListRef()
		t.snapshotZero()
	}
}

// rebuildListRef recomputes the reverse-reference index from the lists.
func (t *Tree) rebuildListRef() {
	n := len(t.Nodes)
	if cap(t.listRef) < n {
		old := t.listRef
		t.listRef = make([][]int32, n)
		copy(t.listRef, old)
	}
	t.listRef = t.listRef[:n]
	for i := range t.listRef {
		t.listRef[i] = t.listRef[i][:0]
	}
	for i := range t.Nodes {
		ti := int32(i)
		for _, s := range t.Nodes[i].U {
			t.listRef[s] = append(t.listRef[s], ti)
		}
		for _, s := range t.Nodes[i].V {
			t.listRef[s] = append(t.listRef[s], ti)
		}
	}
}

// snapshotZero records the per-node empty status the lists were built
// against, for Refill's topology-flip detection.
func (t *Tree) snapshotZero() {
	if cap(t.listZero) < len(t.Nodes) {
		t.listZero = make([]bool, len(t.Nodes))
	}
	t.listZero = t.listZero[:len(t.Nodes)]
	for i := range t.Nodes {
		t.listZero[i] = t.Nodes[i].Count() == 0
	}
}

// repairLists incrementally updates the lists after local edits. Let sub
// be the union of the arena subtrees under the dirty roots and anc their
// ancestor chains. The repair
//
//  1. removes every list entry and reverse reference that touches sub
//     (clearing the lists of sub nodes, and filtering sub sources out of
//     the lists of outside targets found via the reverse index), then
//  2. re-derives exactly the sub-involving pairs with one restricted dual
//     traversal from (root, root) that prunes any pair whose two sides
//     are both outside anc ∪ sub — no such pair can lead to a recording
//     with a side in sub, because descendants of unrelated nodes are
//     unrelated — and records a pair only when one side lies in sub.
//
// A single combined pass over all dirty roots is essential: repairing
// roots one at a time would record pairs joining two dirty subtrees twice
// (once per direction of the restriction) and then lose them when the
// second root's pass clears its lists. Touched lists are re-sorted, so
// the result is element-wise identical to a from-scratch build.
func (t *Tree) repairLists() {
	nNodes := len(t.Nodes)
	if len(t.subMark) < nNodes {
		t.subMark = growStamps(t.subMark, nNodes)
		t.ancMark = growStamps(t.ancMark, nNodes)
		t.touchMark = growStamps(t.touchMark, nNodes)
	}
	for len(t.listRef) < nNodes {
		t.listRef = append(t.listRef, nil)
	}
	t.markGen++
	if t.markGen == 0 { // generation counter wrapped: reset stamps
		clear(t.subMark)
		clear(t.ancMark)
		clear(t.touchMark)
		t.markGen = 1
	}
	gen := t.markGen

	// Stamp sub = union of arena subtrees (including hidden children:
	// PushDown may have just made them visible) and collect its nodes.
	var sub []int32
	var stamp func(ni int32)
	stamp = func(ni int32) {
		if t.subMark[ni] == gen {
			return
		}
		t.subMark[ni] = gen
		sub = append(sub, ni)
		n := &t.Nodes[ni]
		if n.Leaf {
			return
		}
		for _, ci := range n.Children {
			if ci != NilNode {
				stamp(ci)
			}
		}
	}
	for _, r := range t.dirtyRoots {
		stamp(r)
	}
	// Stamp anc = union of the dirty roots' ancestor chains (chains share
	// suffixes, so stop at the first already-stamped ancestor).
	for _, r := range t.dirtyRoots {
		for a := t.Nodes[r].Parent; a != NilNode; a = t.Nodes[a].Parent {
			if t.ancMark[a] == gen {
				break
			}
			t.ancMark[a] = gen
		}
	}
	t.dirtyRoots = t.dirtyRoots[:0]
	// Repair cost scales with the references into the stamped region
	// (unlink filters, re-sorts) at roughly fanout× the per-node cost of
	// the full traversal, so the measured break-even sits near 1/16 of
	// the arena — well before the region covers most of the tree. The
	// floor keeps small trees on the repair path, where a batch is a
	// handful of subtrees and the full traversal has nothing to amortize.
	lim := nNodes / 16
	if lim < 64 {
		lim = 64
	}
	if len(sub) > lim {
		t.RebuildLists()
		return
	}

	// Step 1: unlink. Every outside node that could hold a stale entry —
	// a target referencing the region (it appears in some listRef[z]) or
	// a source referenced by it (it appears in some z's U/V, so sub
	// members must leave its reverse index) — is collected once, then
	// each of its three lists is filtered of stamped entries in a single
	// wholesale pass. Filtering wholesale instead of removing entry by
	// entry is what keeps large Enforce_S batches cheaper than a full
	// rebuild: per-entry removal rescans each list once per stale entry.
	var outTouched []int32
	touch := func(r int32) {
		if t.subMark[r] != gen && t.touchMark[r] != gen {
			t.touchMark[r] = gen
			outTouched = append(outTouched, r)
		}
	}
	for _, z := range sub {
		nz := &t.Nodes[z]
		for _, s := range nz.U {
			touch(s)
		}
		for _, s := range nz.V {
			touch(s)
		}
		for _, r := range t.listRef[z] {
			touch(r)
		}
		nz.U = nz.U[:0]
		nz.V = nz.V[:0]
		t.listRef[z] = t.listRef[z][:0]
	}
	for _, r := range outTouched {
		nr := &t.Nodes[r]
		nr.U = filterMarked(nr.U, t.subMark, gen)
		nr.V = filterMarked(nr.V, t.subMark, gen)
		t.listRef[r] = filterMarked(t.listRef[r], t.subMark, gen)
	}

	// Step 2: one restricted traversal re-derives the removed pairs.
	var visits int64
	t.repairDual(t.Root, t.Root, gen, &outTouched, &visits)

	// Restore canonical order on everything that changed. Outside targets
	// kept a sorted prefix (filtering preserves order) with appended
	// tails; sub nodes were rebuilt in traversal order.
	for _, z := range sub {
		nz := &t.Nodes[z]
		slices.Sort(nz.U)
		slices.Sort(nz.V)
	}
	for _, r := range outTouched {
		nr := &t.Nodes[r]
		slices.Sort(nr.U)
		slices.Sort(nr.V)
	}

	// Only these lists changed: the class schedule re-derives their rows.
	t.touchClassRows(sub)
	t.touchClassRows(outTouched)

	t.listEpoch++
	t.listStats.Repairs++
	t.listStats.Pairs += visits
	t.lastWork = ListWork{Full: false, Pairs: visits}
	t.snapshotZero()
}

// repairDual is the restricted dual traversal of repairLists: identical
// pair expansion to dual, pruned to pairs related to the dirty region, and
// recording only pairs with a side in sub.
func (t *Tree) repairDual(a, b int32, gen uint32, outTouched *[]int32, visits *int64) {
	subA, subB := t.subMark[a] == gen, t.subMark[b] == gen
	if !subA && !subB && t.ancMark[a] != gen && t.ancMark[b] != gen {
		return
	}
	na := &t.Nodes[a]
	nb := &t.Nodes[b]
	if na.Count() == 0 || nb.Count() == 0 {
		return
	}
	*visits++
	if a != b && t.accepted(na, nb) {
		if subA || subB {
			na.V = append(na.V, b)
			t.recordRef(a, b, subA, gen, outTouched)
		}
		return
	}
	aLeaf := na.IsVisibleLeaf()
	bLeaf := nb.IsVisibleLeaf()
	if aLeaf && bLeaf {
		if subA || subB {
			na.U = append(na.U, b)
			t.recordRef(a, b, subA, gen, outTouched)
		}
		return
	}
	if !aLeaf && (bLeaf || na.Box.Half >= nb.Box.Half) {
		for _, ci := range na.Children {
			if ci != NilNode {
				t.repairDual(ci, b, gen, outTouched, visits)
			}
		}
		return
	}
	for _, ci := range nb.Children {
		if ci != NilNode {
			t.repairDual(a, ci, gen, outTouched, visits)
		}
	}
}

// recordRef maintains the reverse index for a newly recorded (target a,
// source b) pair and tracks outside targets that will need re-sorting.
func (t *Tree) recordRef(a, b int32, subA bool, gen uint32, outTouched *[]int32) {
	t.listRef[b] = append(t.listRef[b], a)
	if !subA && t.touchMark[a] != gen {
		t.touchMark[a] = gen
		*outTouched = append(*outTouched, a)
	}
}

// growStamps widens a stamp array preserving existing generations.
func growStamps(s []uint32, n int) []uint32 {
	out := make([]uint32, n)
	copy(out, s)
	return out
}

// filterMarked removes entries stamped with gen, preserving order (so a
// sorted list stays sorted).
func filterMarked(s []int32, mark []uint32, gen uint32) []int32 {
	w := 0
	for _, x := range s {
		if mark[x] != gen {
			s[w] = x
			w++
		}
	}
	return s[:w]
}

// accepted reports whether the pair satisfies the MAC.
func (t *Tree) accepted(na, nb *Node) bool {
	d := na.Box.Center.Sub(nb.Box.Center).Norm()
	return t.Cfg.MAC*d > sqrt3*(na.Box.Half+nb.Box.Half)
}

// dual records interactions with a as target and b as source, counting
// pair visits into *visits.
func (t *Tree) dual(a, b int32, visits *int64) {
	na := &t.Nodes[a]
	nb := &t.Nodes[b]
	if na.Count() == 0 || nb.Count() == 0 {
		return
	}
	*visits++
	if a != b && t.accepted(na, nb) {
		na.V = append(na.V, b)
		return
	}
	aLeaf := na.IsVisibleLeaf()
	bLeaf := nb.IsVisibleLeaf()
	if aLeaf && bLeaf {
		na.U = append(na.U, b)
		return
	}
	// Expand the larger node; prefer expanding the target on ties so
	// both directed orders are generated symmetrically.
	if !aLeaf && (bLeaf || na.Box.Half >= nb.Box.Half) {
		for _, ci := range na.Children {
			if ci != NilNode {
				t.dual(ci, b, visits)
			}
		}
		return
	}
	for _, ci := range nb.Children {
		if ci != NilNode {
			t.dual(a, ci, visits)
		}
	}
}

// OpCounts tallies how many times each FMM operation is applied on the
// current visible tree and lists, in the units of the paper's cost model:
// P2M and L2P per body, M2M and L2L per parent-child translation, M2L per
// V-list pair, P2P per U-list body-body interaction. These are the counts
// the virtual machine is priced by; it keeps the paper's operator
// assignment, so an accepted pair counts as a translation whether or not
// the host sums it directly (NearSchedule.DirectPairs says how many are).
type OpCounts struct {
	P2M  int64
	M2M  int64
	M2L  int64
	L2L  int64
	L2P  int64
	P2P  int64 // body-body interactions
	P2PN int64 // P2P node-pair count (kernel bookkeeping)
}

// CountOps requires BuildLists to have been called.
func (t *Tree) CountOps() OpCounts {
	var c OpCounts
	sch := t.NearField()
	c.P2P = sch.PricedTotal()
	c.P2PN = int64(len(sch.Srcs)) - sch.DirectPairs
	t.WalkVisible(func(ni int32) {
		n := &t.Nodes[ni]
		c.M2L += int64(len(n.V))
		if n.IsVisibleLeaf() {
			c.P2M += int64(n.Count())
			c.L2P += int64(n.Count())
			return
		}
		for _, ci := range n.Children {
			if ci != NilNode && t.Nodes[ci].Count() > 0 {
				c.M2M++
				c.L2L++
			}
		}
	})
	return c
}

// LeafInteractions returns, for each visible leaf (in DFS order), the
// number of direct interactions it participates in as a target:
// Interactions(t) = n_t * sum_{s in U(t)} n_s — the quantity the paper
// uses to divide near-field work across GPUs. It is a view over the
// cached near-field schedule (see NearSchedule.Priced); the
// returned slices are owned by the tree and valid until the next list or
// occupancy change.
func (t *Tree) LeafInteractions() (leaves []int32, inter []int64) {
	sch := t.NearField()
	return sch.Leaves, sch.priced
}

// ValidateLists checks the interaction description the solvers execute:
// for every ordered pair of bodies (i, j) the interaction is accounted
// exactly once — either j's leaf is in the near-field schedule row of i's
// leaf, or some ancestor pair is connected through a V-list entry that is
// translated (not selected by Direct) — and the near-field rows are
// symmetric (s ∈ row(t) ⇔ t ∈ row(s)), which is what keeps the direct
// part's pairwise force cancellation exact. It is O(N^2 log N) and
// intended for tests on small systems.
func (t *Tree) ValidateLists() error {
	n := t.Sys.Len()
	if n == 0 {
		return nil
	}
	sch := t.NearField()
	rowOf := make(map[int32]int, sch.Rows())
	for r, li := range sch.Leaves {
		rowOf[li] = r
	}
	inRow := func(target, src int32) bool {
		_, ok := slices.BinarySearch(sch.Row(rowOf[target]), src)
		return ok
	}
	for r, li := range sch.Leaves {
		if !slices.IsSorted(sch.Row(r)) {
			return fmt.Errorf("octree: near row of leaf %d not ascending", li)
		}
		for _, si := range sch.Row(r) {
			if !inRow(si, li) {
				return fmt.Errorf("octree: near rows asymmetric: %d in row(%d) but not the reverse", si, li)
			}
		}
	}
	var err error
	t.WalkVisible(func(ni int32) {
		far, mask := 0, t.DirectMask(ni)
		for k, vi := range t.Nodes[ni].V {
			direct := t.Direct(ni, vi)
			if !direct {
				far++
			}
			if direct != mask[k] && err == nil {
				err = fmt.Errorf("octree: DirectMask(%d)[%d] disagrees with Direct(%d,%d) = %v", ni, k, ni, vi, direct)
			}
		}
		if far != t.FarPairs(ni) && err == nil {
			err = fmt.Errorf("octree: node %d translates %d pairs, FarPairs says %d", ni, far, t.FarPairs(ni))
		}
	})
	if err != nil {
		return err
	}
	// Map each body to its visible leaf.
	leafOf := make([]int32, n)
	for _, li := range sch.Leaves {
		nd := &t.Nodes[li]
		for i := nd.Start; i < nd.End; i++ {
			leafOf[i] = li
		}
	}
	// For each node, the chain of visible ancestors (inclusive).
	ancestors := func(ni int32) []int32 {
		var chain []int32
		for ni != NilNode {
			chain = append(chain, ni)
			ni = t.Nodes[ni].Parent
		}
		return chain
	}
	translated := func(target, src int32) bool {
		_, ok := slices.BinarySearch(t.Nodes[target].V, src)
		return ok && !t.Direct(target, src)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ti, sj := leafOf[i], leafOf[j]
			count := 0
			if inRow(ti, sj) {
				count++
			}
			for _, ta := range ancestors(ti) {
				for _, sa := range ancestors(sj) {
					if translated(ta, sa) {
						count++
					}
				}
			}
			if count != 1 {
				return fmt.Errorf("octree: body pair (%d,%d) covered %d times (leaves %d,%d)",
					i, j, count, ti, sj)
			}
		}
	}
	return nil
}
