package dmem

import (
	"sort"

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
// Messages are keyed by (sender, receiver, tree level). Multipoles flow
// while ascending — a level-L mpole message depends only on up work at
// levels > L — and locals flow while descending — a level-L local
// message depends only on down work at levels < L — so the cross-node
// message graph is acyclic by induction on level. Ghost-body messages
// depend on nothing (positions are step inputs) and are graph roots.

type flowKey struct {
	from, to int
	level    int
}

type pairKey struct {
	from, to int
}

type exchangePlan struct {
	// owner[ni] is the owning node of tree cell ni (-1 for cells outside
	// every range, which only happens for empty cells).
	owner []int32
	// ownedCells[k] lists node k's cells in DFS (WalkVisible) order.
	ownedCells [][]int32

	// mpoleNeed[{j,k,L}]: level-L cells whose multipoles node k needs
	// from node j (remote children of owned parents + remote sources of
	// translated V-list pairs). localNeed[{j,k,L}]: level-L cells whose
	// local expansions node k needs from j (remote parents of owned
	// cells). ghostNeed[{j,k}]: remote source leaves of k's near-field
	// rows — U-list neighbours and the accepted leaves Tree.Direct sums
	// directly — whose bodies k needs from j. All slices sorted ascending
	// and deduplicated.
	mpoleNeed map[flowKey][]int32
	localNeed map[flowKey][]int32
	ghostNeed map[pairKey][]int32

	// rows[k] lists the near-schedule CSR rows whose target leaf node k
	// owns.
	rows [][]int
}

// flowIDs enumerates every cross-node flow of the plan — the single
// construction that used to be copy-pasted three times as per-kind
// channel maps. The transport builds one frame endpoint per flow;
// mpole/local flows are keyed by tree level, ghost flows by node pair.
func (pl *exchangePlan) flowIDs() []flowID {
	ids := make([]flowID, 0, len(pl.mpoleNeed)+len(pl.localNeed)+len(pl.ghostNeed))
	for fk := range pl.mpoleNeed {
		ids = append(ids, flowID{kind: flowMpole, from: fk.from, to: fk.to, level: fk.level})
	}
	for fk := range pl.localNeed {
		ids = append(ids, flowID{kind: flowLocal, from: fk.from, to: fk.to, level: fk.level})
	}
	for pk := range pl.ghostNeed {
		ids = append(ids, flowID{kind: flowGhost, from: pk.from, to: pk.to})
	}
	return ids
}

func sortDedup(s []int32) []int32 {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// buildPlan derives the step's exchange plan. ownerOf maps a body index
// to its owning node under the current cuts; p is the node count. Empty
// cells never appear in need sets (both sides leave their slabs zeroed,
// exactly like the single-node solver).
func buildPlan(t *octree.Tree, sch *octree.NearSchedule, ownerOf func(int32) int32, p int) *exchangePlan {
	pl := &exchangePlan{
		owner:      make([]int32, len(t.Nodes)),
		ownedCells: make([][]int32, p),
		mpoleNeed:  make(map[flowKey][]int32),
		localNeed:  make(map[flowKey][]int32),
		ghostNeed:  make(map[pairKey][]int32),
		rows:       make([][]int, p),
	}
	for i := range pl.owner {
		pl.owner[i] = -1
	}
	t.WalkVisible(func(ni int32) {
		k := ownerOf(t.Nodes[ni].Start)
		pl.owner[ni] = k
		pl.ownedCells[k] = append(pl.ownedCells[k], ni)
	})

	// Expansion flows. A cell's owner computes its mpole and local; the
	// dependencies that cross an ownership boundary become need entries.
	t.WalkVisible(func(ni int32) {
		n := &t.Nodes[ni]
		k := int(pl.owner[ni])
		if !n.IsVisibleLeaf() {
			for _, ci := range n.Children {
				if ci == octree.NilNode || t.Nodes[ci].Count() == 0 {
					continue
				}
				if j := int(pl.owner[ci]); j != k {
					fk := flowKey{from: j, to: k, level: int(t.Nodes[ci].Level)}
					pl.mpoleNeed[fk] = append(pl.mpoleNeed[fk], ci)
				}
			}
		}
		direct := t.DirectMask(ni)
		for i, vi := range n.V {
			if j := int(pl.owner[vi]); j != k && !direct[i] {
				fk := flowKey{from: j, to: k, level: int(t.Nodes[vi].Level)}
				pl.mpoleNeed[fk] = append(pl.mpoleNeed[fk], vi)
			}
		}
		if pi := n.Parent; pi != octree.NilNode && t.Nodes[pi].Count() > 0 {
			if j := int(pl.owner[pi]); j != k {
				fk := flowKey{from: j, to: k, level: int(t.Nodes[pi].Level)}
				pl.localNeed[fk] = append(pl.localNeed[fk], pi)
			}
		}
	})

	// Ghost-body flows from the near-field schedule: each CSR row belongs
	// to its target leaf's owner; remote source leaves become ghost needs.
	for r := 0; r < sch.Rows(); r++ {
		k := int(pl.owner[sch.Leaves[r]])
		pl.rows[k] = append(pl.rows[k], r)
		for s := sch.RowPtr[r]; s < sch.RowPtr[r+1]; s++ {
			si := sch.Srcs[s]
			if j := int(pl.owner[si]); j != k {
				pk := pairKey{from: j, to: k}
				pl.ghostNeed[pk] = append(pl.ghostNeed[pk], si)
			}
		}
	}

	for fk, cells := range pl.mpoleNeed {
		pl.mpoleNeed[fk] = sortDedup(cells)
	}
	for fk, cells := range pl.localNeed {
		pl.localNeed[fk] = sortDedup(cells)
	}
	for pk, cells := range pl.ghostNeed {
		pl.ghostNeed[pk] = sortDedup(cells)
	}
	return pl
}
