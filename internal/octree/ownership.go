package octree

import "sort"

// Ownership/range queries for contiguous-range partitions of the body
// array (the distributed-memory decomposition of dmem): bodies are split
// at visible-leaf boundaries so a range owner always owns whole leaves,
// and the owner of a cell is the owner of its first body.

// SnapToLeafEnd returns the admissible ownership cut nearest to the body
// index cut: 0 or a visible-leaf End. Ties prefer the lower boundary, so
// snapping is deterministic; inputs outside [0, N] clamp to the range.
func (t *Tree) SnapToLeafEnd(cut int32) int32 {
	leaves := t.VisibleLeaves()
	if len(leaves) == 0 || cut <= 0 {
		return 0
	}
	n := t.Nodes[leaves[len(leaves)-1]].End
	if cut >= n {
		return n
	}
	// Leaves cover [0, N) contiguously in DFS order, so Ends ascend:
	// find the first leaf whose End reaches the cut.
	i := sort.Search(len(leaves), func(i int) bool {
		return t.Nodes[leaves[i]].End >= cut
	})
	hi := t.Nodes[leaves[i]].End
	lo := int32(0)
	if i > 0 {
		lo = t.Nodes[leaves[i-1]].End
	}
	if cut-lo <= hi-cut {
		return lo
	}
	return hi
}
