// Package neartest is the scalar reference of the mutual near field that
// the gravity and Stokeslet tests hold the near chunks, the fold and the
// step graph to. It reads only the schedule's rows, upper halves and
// chunk bounds, and shares no code with core's chunk walk.
package neartest

import "afmm/internal/octree"

// Mutual runs the near field in the order the tree fixes. Each body first
// takes its row's upper half in row order — oneWay(a, b) sums leaf b's
// bodies into leaf a's one-way (the kernel's P2PScalar, the pair body's
// targets' half) — then, chunk by chunk in order, the sum of the
// reactions its leaf took from the chunk's rows in row order: react(a, b,
// slots) adds to leaf b's slots, one per body and zero at first, the
// reactions of a's bodies (the kernel's P2PPairScalar with its targets'
// half discarded), and fold(b, slots) adds them to b's bodies.
func Mutual[R any](t *octree.Tree, sch *octree.NearSchedule, oneWay func(a, b int32), react func(a, b int32, slots []R), fold func(b int32, slots []R)) {
	for r, a := range sch.Leaves {
		for e := sch.Upper[r]; e < sch.RowPtr[r+1]; e++ {
			oneWay(a, sch.Srcs[e])
		}
	}
	slots := map[[2]int32][]R{} // (chunk, leaf): the leaf's reactions
	for c := range octree.NearChunks {
		rlo, rhi := sch.Chunk(c)
		for r := rlo; r < rhi; r++ {
			for e := sch.Upper[r] + 1; e < sch.RowPtr[r+1]; e++ {
				b := sch.Srcs[e]
				key := [2]int32{int32(c), b}
				if slots[key] == nil {
					slots[key] = make([]R, t.Nodes[b].Count())
				}
				react(sch.Leaves[r], b, slots[key])
			}
		}
	}
	for _, b := range sch.Leaves {
		for c := range int32(octree.NearChunks) {
			if s, ok := slots[[2]int32{c, b}]; ok {
				fold(b, s)
			}
		}
	}
}
