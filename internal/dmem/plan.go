package dmem

import (
	"cmp"
	"slices"

	"afmm/internal/octree"
)

// The exchange plan is the step's locally essential tree (LET) protocol,
// derived independently of execution order from the shared tree and the
// ownership cuts: for every (sender, receiver) pair it lists exactly
// which cells' multipoles, locals, and ghost bodies must cross the wire,
// and in which canonical (sorted-cell) layout. Both the sender's pack
// loop and the receiver's unpack loop walk the same sorted slice, so no
// header metadata is ever shipped.
//
// Expansion flows are keyed by (sender, receiver, tree level). Multipoles
// flow while ascending — a level-L mpole message depends only on up work at
// levels >= L — and locals flow while descending — a level-L local
// message depends only on down work at levels <= L and on multipoles — so
// the cross-node message graph is acyclic by induction on level. Ghost-body
// flows (one per node pair) depend on nothing: positions are step inputs.

// flow is one message of the plan: its transport address and the cells
// whose data it carries, ascending.
type flow struct {
	id    flowID
	cells []int32
}

type exchangePlan struct {
	// owner[ni] is the owning node of visible cell ni (-1 elsewhere).
	owner []int
	// in[k] lists the flows node k receives, out[k] the ones it sends:
	// the same flows, each sorted by (kind, peer, level). A multipole flow
	// carries remote children of the receiver's cells and remote sources of
	// its translated V-list pairs; a local flow remote parents of its
	// cells; a ghost flow the remote source leaves of its near-field rows —
	// U-list neighbours and the accepted leaves Tree.Direct sums directly.
	in, out [][]flow
}

// nodeOf returns the node whose body range [cuts[k], cuts[k+1]) holds i.
func nodeOf(cuts []int32, i int32) int {
	lo, hi := 0, len(cuts)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if cuts[mid] <= i {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// cellOwners returns every visible cell's owner under cuts: the owner of
// the cell's first body.
func cellOwners(t *octree.Tree, cuts []int32) []int {
	owner := make([]int, len(t.Nodes))
	for i := range owner {
		owner[i] = -1
	}
	for _, cells := range t.LevelOrder() {
		for _, ni := range cells {
			owner[ni] = nodeOf(cuts, t.Nodes[ni].Start)
		}
	}
	return owner
}

// buildPlan derives the step's exchange plan under the ownership cuts;
// far and near say which of the two phases the step runs. Empty cells
// never appear in a flow (both sides leave their slabs zeroed, exactly
// like the single-node solver).
func buildPlan(t *octree.Tree, sch *octree.NearSchedule, cuts []int32, far, near bool) *exchangePlan {
	p := len(cuts) - 1
	pl := &exchangePlan{owner: cellOwners(t, cuts), in: make([][]flow, p), out: make([][]flow, p)}

	// Every dependency that crosses an ownership boundary, once per
	// (kind, receiver, cell): receivers ascend along both walks below (DFS
	// order is body order), so asked[kind][ci] == k+1 says receiver k
	// already asked for ci.
	type need struct {
		id   flowID
		cell int32
	}
	var needs []need
	var asked [3][]int32
	for kind := range asked {
		asked[kind] = make([]int32, len(t.Nodes))
	}
	ask := func(kind flowKind, k int, ci int32) {
		if j := pl.owner[ci]; j != k && asked[kind][ci] != int32(k+1) {
			asked[kind][ci] = int32(k + 1)
			id := flowID{kind: kind, from: j, to: k}
			if kind != flowGhost {
				id.level = int(t.Nodes[ci].Level)
			}
			needs = append(needs, need{id, ci})
		}
	}
	if far {
		t.WalkVisible(func(ni int32) {
			n := &t.Nodes[ni]
			k := pl.owner[ni]
			if !n.IsVisibleLeaf() {
				for _, ci := range n.Children {
					if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
						ask(flowMpole, k, ci)
					}
				}
			}
			direct := t.DirectMask(ni)
			for i, vi := range n.V {
				if !direct[i] {
					ask(flowMpole, k, vi)
				}
			}
			if pi := n.Parent; pi != octree.NilNode {
				ask(flowLocal, k, pi)
			}
		})
	}
	if near {
		for r, li := range sch.Leaves {
			for _, si := range sch.Srcs[sch.RowPtr[r]:sch.RowPtr[r+1]] {
				ask(flowGhost, pl.owner[li], si)
			}
		}
	}

	slices.SortFunc(needs, func(a, b need) int {
		return cmp.Or(cmp.Compare(a.id.to, b.id.to), cmp.Compare(a.id.kind, b.id.kind),
			cmp.Compare(a.id.from, b.id.from), cmp.Compare(a.id.level, b.id.level),
			cmp.Compare(a.cell, b.cell))
	})
	for i := 0; i < len(needs); {
		f := flow{id: needs[i].id}
		for ; i < len(needs) && needs[i].id == f.id; i++ {
			f.cells = append(f.cells, needs[i].cell)
		}
		pl.in[f.id.to] = append(pl.in[f.id.to], f)
	}
	for kind := flowMpole; kind <= flowGhost; kind++ {
		for _, fs := range pl.in {
			for _, f := range fs {
				if f.id.kind == kind {
					pl.out[f.id.from] = append(pl.out[f.id.from], f)
				}
			}
		}
	}
	return pl
}

// flowIDs enumerates every flow of the plan; the transport builds one
// frame endpoint per flow.
func (pl *exchangePlan) flowIDs() []flowID {
	var ids []flowID
	for _, fs := range pl.in {
		for _, f := range fs {
			ids = append(ids, f.id)
		}
	}
	return ids
}
