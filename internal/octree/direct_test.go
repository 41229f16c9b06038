package octree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"afmm/internal/distrib"
	"afmm/internal/geom"
	"afmm/internal/particle"
)

// directCases are small adaptive trees of different shapes for the
// exhaustive exactly-once check.
var directCases = []struct {
	name string
	sys  func() *particle.System
	s    int
}{
	{"plummer", func() *particle.System { return distrib.Plummer(180, 1, 1, 3) }, 6},
	{"cube", func() *particle.System { return distrib.UniformCube(200, 1, 4) }, 3},
	{"clusters", func() *particle.System { return distrib.TwoClusters(160, 1, 1, 6, 0.5, 5) }, 10},
	{"disk", func() *particle.System { return distrib.SpiralDisk(150, 1, 1, 6) }, 1},
}

// mutualLeafPairs counts the V entries joining two visible leaves in both
// directions — what Direct selects at an unbounded threshold.
func mutualLeafPairs(tr *Tree) (n int64) {
	for _, li := range tr.VisibleLeaves() {
		for _, vi := range tr.Nodes[li].V {
			if tr.Nodes[vi].IsVisibleLeaf() && slices.Contains(tr.Nodes[vi].V, li) {
				n++
			}
		}
	}
	return n
}

// TestDirectCoversEveryPairOnce: at every threshold, from "never" to
// "always", schedule rows ∪ translated V entries cover each body pair
// exactly once, rows are symmetric, and the operation counts add up.
func TestDirectCoversEveryPairOnce(t *testing.T) {
	for _, tc := range directCases {
		tr := Build(tc.sys(), Config{S: tc.s})
		tr.BuildLists()
		var vTotal int64
		tr.WalkVisible(func(ni int32) { vTotal += int64(len(tr.Nodes[ni].V)) })
		mutual := mutualLeafPairs(tr)
		if mutual == 0 {
			t.Fatalf("%s: no leaf–leaf V pairs to select from", tc.name)
		}
		base := tr.CountOps()
		if base.M2L != vTotal {
			t.Fatalf("%s: CountOps counts %d M2L for %d V pairs", tc.name, base.M2L, vTotal)
		}
		var last int64 = -1
		for _, k := range []int64{0, 2, 16, 100, math.MaxInt64} {
			tr.SetDirectK(k)
			if err := tr.ValidateLists(); err != nil {
				t.Fatalf("%s K=%d: %v", tc.name, k, err)
			}
			sch := tr.NearField()
			var far, listed int64
			tr.WalkVisible(func(ni int32) { far += int64(tr.FarPairs(ni)) })
			for _, w := range sch.priced {
				listed += w
			}
			if far+sch.DirectPairs != vTotal {
				t.Fatalf("%s K=%d: %d translated + %d direct != %d V pairs", tc.name, k, far, sch.DirectPairs, vTotal)
			}
			if listed != sch.PricedTotal() || listed+sch.DirectInteractions != sch.Total() {
				t.Fatalf("%s K=%d: %d listed + %d direct interactions, total %d", tc.name, k, listed, sch.DirectInteractions, sch.Total())
			}
			// The cost-model counts are the paper's at every K: each V pair
			// a translation, the U lists the near field.
			if ops := tr.CountOps(); ops != base {
				t.Fatalf("%s K=%d: CountOps %+v, at K=0 %+v", tc.name, k, ops, base)
			}
			if sch.DirectPairs < last {
				t.Fatalf("%s K=%d: direct pairs fell %d -> %d as K grew", tc.name, k, last, sch.DirectPairs)
			}
			last = sch.DirectPairs
			switch k {
			case 0:
				if sch.DirectPairs != 0 || sch.DirectInteractions != 0 {
					t.Fatalf("%s K=0 selected %d pairs", tc.name, sch.DirectPairs)
				}
				for r, li := range sch.Leaves {
					if !slices.Equal(sch.Row(r), tr.Nodes[li].U) {
						t.Fatalf("%s K=0: row %d != U(%d)", tc.name, r, li)
					}
				}
			case math.MaxInt64:
				if sch.DirectPairs != mutual {
					t.Fatalf("%s K=inf: %d direct pairs, %d mutual leaf–leaf V pairs", tc.name, sch.DirectPairs, mutual)
				}
			}
		}
	}
}

// requireScheduleEqual compares every derived field of two schedules and
// the per-node direct counts behind FarPairs.
func requireScheduleEqual(t *testing.T, got, want *Tree, stage string) {
	t.Helper()
	a, b := got.NearField(), want.NearField()
	if !slices.Equal(a.Leaves, b.Leaves) || !slices.Equal(a.RowPtr, b.RowPtr) ||
		!slices.Equal(a.Srcs, b.Srcs) || !slices.Equal(a.SrcStart, b.SrcStart) ||
		!slices.Equal(a.SrcEnd, b.SrcEnd) || a.total != b.total ||
		!slices.Equal(a.fromV, b.fromV) || !slices.Equal(a.priced, b.priced) ||
		a.DirectPairs != b.DirectPairs || a.DirectInteractions != b.DirectInteractions {
		t.Fatalf("%s: cached schedule differs from a from-scratch one (direct pairs %d vs %d)",
			stage, a.DirectPairs, b.DirectPairs)
	}
	if !slices.Equal(got.nDirect, want.nDirect) {
		t.Fatalf("%s: per-node direct counts differ", stage)
	}
}

// TestDirectScheduleTracksOccupancy: with bodies drifting across the
// threshold between structural edits, the cached tree's schedule (skip,
// repair and rebuild regimes alike) equals the schedule of a structural
// clone built from scratch, and pairs do cross the threshold on steps
// that leave the list epoch alone.
func TestDirectScheduleTracksOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sys := distrib.Plummer(1500, 1, 1, 5)
	tr := Build(sys, Config{S: 12})
	tr.SetDirectK(40)
	tr.BuildLists()
	crossedQuietly := 0
	for step := 0; step < 50; step++ {
		epoch, before := tr.ListEpoch(), tr.NearField().DirectPairs
		lbl := mutate(tr, rng, 0.02)
		tr.BuildLists()
		stage := fmt.Sprintf("step %d (%s)", step, lbl)
		ref := cloneForLists(tr)
		ref.RebuildLists()
		requireListsEqual(t, tr, ref, stage)
		requireScheduleEqual(t, tr, ref, stage)
		if tr.ListEpoch() == epoch && tr.NearField().DirectPairs != before {
			crossedQuietly++
		}
	}
	// Pure drift on a uniform cube (no leaf empties, so the lists are
	// skipped): only the occupancy moves.
	sys = distrib.UniformCube(3000, 1, 6)
	tr = Build(sys, Config{S: 12})
	tr.SetDirectK(40)
	tr.BuildLists()
	for step := 0; step < 10; step++ {
		epoch, before := tr.ListEpoch(), tr.NearField().DirectPairs
		for i := range sys.Pos {
			sys.Pos[i] = sys.Pos[i].Add(geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Scale(0.004))
		}
		tr.Refill()
		tr.BuildLists()
		ref := cloneForLists(tr)
		ref.RebuildLists()
		requireScheduleEqual(t, tr, ref, fmt.Sprintf("drift %d", step))
		if tr.ListEpoch() == epoch && tr.NearField().DirectPairs != before {
			crossedQuietly++
		}
	}
	if crossedQuietly == 0 {
		t.Fatal("no refill moved a pair across the threshold without a list repair")
	}
	if st := tr.ListBuildStats(); st.Repairs == 0 || st.Skips == 0 {
		t.Fatalf("sequence did not exercise repair and skip: %+v", st)
	}
}

// TestDirectValidatesUnderEdits re-runs the exhaustive check along an edit
// sequence on a system small enough for it.
func TestDirectValidatesUnderEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sys := distrib.Plummer(160, 1, 1, 8)
	tr := Build(sys, Config{S: 6})
	tr.SetDirectK(12)
	tr.BuildLists()
	for step := 0; step < 30; step++ {
		lbl := mutate(tr, rng, 0.05)
		tr.BuildLists()
		if err := tr.ValidateLists(); err != nil {
			t.Fatalf("step %d (%s): %v", step, lbl, err)
		}
	}
}

// TestDirectPartConservesMomentum: summing only the direct entries of the
// rows with the plain Newtonian pair force, Σ m·a vanishes to rounding —
// the rows are symmetric, so every pair force meets its reaction.
func TestDirectPartConservesMomentum(t *testing.T) {
	sys := distrib.Plummer(3000, 1, 1, 9)
	tr := Build(sys, Config{S: 16})
	tr.SetDirectK(120)
	tr.BuildLists()
	sch := tr.NearField()
	if sch.DirectPairs == 0 {
		t.Fatal("nothing selected")
	}
	var net geom.Vec3
	var scale float64
	for r, li := range sch.Leaves {
		tn := &tr.Nodes[li]
		for _, si := range sch.Row(r) {
			if _, inU := slices.BinarySearch(tn.U, si); inU {
				continue
			}
			sn := &tr.Nodes[si]
			for i := tn.Start; i < tn.End; i++ {
				for j := sn.Start; j < sn.End; j++ {
					d := sys.Pos[j].Sub(sys.Pos[i])
					f := d.Scale(sys.Mass[i] * sys.Mass[j] / (d.Norm2() * d.Norm()))
					net = net.Add(f)
					scale += f.Norm()
				}
			}
		}
	}
	if net.Norm() > 1e-13*scale {
		t.Fatalf("direct part leaves net force %g of %g", net.Norm(), scale)
	}
}

// TestDirectMaskRefusesStaleSchedule: a mask read between an occupancy or
// list change and the next NearField would describe the previous step, so
// it panics instead of answering.
func TestDirectMaskRefusesStaleSchedule(t *testing.T) {
	sys := distrib.Plummer(500, 1, 1, 4)
	tr := Build(sys, Config{S: 8})
	tr.SetDirectK(40)
	stale := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		tr.DirectMask(tr.Root)
		return false
	}
	tr.BuildLists()
	if !stale() {
		t.Fatal("mask served before the first NearField")
	}
	tr.NearField()
	if stale() {
		t.Fatal("mask refused on a resolved schedule")
	}
	tr.Refill()
	if !stale() {
		t.Fatal("mask served after Refill without NearField")
	}
}

// TestNearFieldRefillAllocatesNothing: the buffers are reserved per list
// topology, so the per-occupancy-change refill is allocation-free.
func TestNearFieldRefillAllocatesNothing(t *testing.T) {
	sys := distrib.Plummer(4000, 1, 1, 2)
	tr := Build(sys, Config{S: 24})
	tr.SetDirectK(200)
	tr.BuildLists()
	tr.NearField()
	k := int64(200)
	if a := testing.AllocsPerRun(10, func() {
		// Alternate the threshold so rows really grow and shrink.
		k = 300 - k
		tr.SetDirectK(k)
		tr.NearField()
	}); a != 0 {
		t.Fatalf("steady-state NearField rebuild allocates %v times", a)
	}
}

// TestCandidateFlagsMatchDirectCandidate: the schedule's candidate flags,
// merged from the reversed leaf V lists, equal directCandidate on every
// leaf V entry — after a full build, after list repairs (Collapse,
// PushDown) and after a Refill that moved bodies.
func TestCandidateFlagsMatchDirectCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range directCases {
		tr := Build(tc.sys(), Config{S: tc.s})
		check := func(stage string) {
			t.Helper()
			tr.BuildLists()
			if err := tr.ValidateLists(); err != nil {
				t.Fatalf("%s %s: %v", tc.name, stage, err)
			}
			tr.NearField()
			flagged := 0
			for _, li := range tr.VisibleLeaves() {
				cand := tr.directCand[tr.maskOff[li]:][:len(tr.Nodes[li].V)]
				for k, vi := range tr.Nodes[li].V {
					if want := tr.directCandidate(li, vi); cand[k] != want {
						t.Fatalf("%s %s: leaf %d entry %d (node %d) flagged %v, directCandidate %v", tc.name, stage, li, k, vi, cand[k], want)
					}
					if cand[k] {
						flagged++
					}
				}
			}
			if flagged == 0 {
				t.Fatalf("%s %s: no candidate on the tree", tc.name, stage)
			}
		}
		check("full build")
		repairs := tr.ListBuildStats().Repairs
		for i := 0; i < 6; i++ {
			lbl := mutate(tr, rng, 0) // one edit a round: Collapse, PushDown, Refill or EnforceS
			check(fmt.Sprintf("edit %d (%s)", i, lbl))
		}
		for i := range tr.Sys.Pos {
			tr.Sys.Pos[i] = tr.Sys.Pos[i].Add(geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Scale(0.01))
		}
		tr.Refill()
		check("refill")
		if tr.ListBuildStats().Repairs == repairs {
			t.Fatalf("%s: the edits repaired no list", tc.name)
		}
	}
}

// TestNearChunksLayout: the mutual reading of the schedule evaluates every
// unordered pair of distinct rows once, as an upper entry of the lower
// row, with the mirror entry in the other row; the chunks cover the rows
// in order with about equal mutual work; inside a chunk each partner leaf
// has one reaction slot, slots do not overlap, and a row's fold list names
// exactly the chunks holding a slot for it, ascending — at several
// thresholds and after a Refill.
func TestNearChunksLayout(t *testing.T) {
	for _, tc := range directCases {
		tr := Build(tc.sys(), Config{S: tc.s})
		tr.BuildLists()
		for _, k := range []int64{0, 40, math.MaxInt64, -1} {
			if k < 0 {
				for i := range tr.Sys.Pos {
					tr.Sys.Pos[i] = tr.Sys.Pos[i].Scale(1.01)
				}
				tr.Refill()
				tr.BuildLists()
			} else {
				tr.SetDirectK(k)
			}
			name := fmt.Sprintf("%s K=%d", tc.name, k)
			sch := tr.NearField() // panics on an unpaired row
			rowOf := map[int32]int{}
			for r, li := range sch.Leaves {
				rowOf[li] = r
			}
			if sch.Chunks[0] != 0 || int(sch.Chunks[NearChunks]) != sch.Rows() {
				t.Fatalf("%s: chunks %v do not cover %d rows", name, sch.Chunks, sch.Rows())
			}
			var total, heaviest, rowMax int64
			seen := map[[2]int32]int{}
			for c := range NearChunks {
				lo, hi := sch.Chunk(c)
				if lo > hi {
					t.Fatalf("%s: chunk %d is [%d, %d)", name, c, lo, hi)
				}
				total += sch.ChunkWork(c)
				heaviest = max(heaviest, sch.ChunkWork(c))
				slot := map[int32]int32{}
				used := make([]bool, sch.ReactLen[c])
				for r := lo; r < hi; r++ {
					a := sch.Leaves[r]
					if sch.Srcs[sch.Upper[r]] != a {
						t.Fatalf("%s: row %d's upper half starts at %d, not its own leaf", name, r, sch.Srcs[sch.Upper[r]])
					}
					var work int64
					for k := sch.Upper[r]; k < sch.RowPtr[r+1]; k++ {
						work += int64(tr.Nodes[a].Count()) * int64(sch.SrcEnd[k]-sch.SrcStart[k])
						if k == sch.Upper[r] {
							continue
						}
						b, off := sch.Srcs[k], sch.Slot(k, c)
						seen[[2]int32{a, b}]++
						if _, ok := slot[b]; !ok {
							slot[b] = off
							for i := off; i < off+sch.SrcEnd[k]-sch.SrcStart[k]; i++ {
								if used[i] {
									t.Fatalf("%s: chunk %d slots overlap at %d", name, c, i)
								}
								used[i] = true
							}
						}
						if slot[b] != off {
							t.Fatalf("%s: chunk %d gives leaf %d offsets %d and %d", name, c, b, slot[b], off)
						}
					}
					rowMax = max(rowMax, work)
				}
				for b, off := range slot {
					chunks, offs := sch.Fold(rowOf[b])
					i := slices.Index(chunks, uint8(c))
					if i < 0 || offs[i] != off {
						t.Fatalf("%s: leaf %d's fold list %v %v misses chunk %d at %d", name, b, chunks, offs, c, off)
					}
				}
			}
			for r, li := range sch.Leaves {
				chunks, _ := sch.Fold(r)
				if !slices.IsSorted(chunks) || len(slices.Compact(slices.Clone(chunks))) != len(chunks) {
					t.Fatalf("%s: row %d's fold chunks %v", name, r, chunks)
				}
				for _, b := range sch.Row(r) {
					pair := [2]int32{li, b}
					if b < li {
						pair = [2]int32{b, li}
					}
					if li != b && seen[pair] != 1 {
						t.Fatalf("%s: pair %v evaluated %d times", name, pair, seen[pair])
					}
				}
			}
			if total > 0 && heaviest > total/NearChunks+rowMax {
				t.Fatalf("%s: heaviest chunk %d of %d, rows up to %d", name, heaviest, total, rowMax)
			}
		}
	}
}

// TestNearFieldPanicsOnBrokenRows: the mutual layout refuses rows that do
// not pair, instead of summing an entry one-way without its reaction — a
// U entry naming a node that is no visible leaf (an orphan), and a U entry
// whose mirror entry is missing.
func TestNearFieldPanicsOnBrokenRows(t *testing.T) {
	for _, forge := range []struct {
		name string
		edit func(tr *Tree, a, b int32)
	}{
		{"orphan", func(tr *Tree, a, _ int32) {
			tr.Nodes[a].U = slices.Insert(slices.Clone(tr.Nodes[a].U), 0, tr.Root)
		}},
		{"asymmetric", func(tr *Tree, a, b int32) {
			tr.Nodes[b].U = slices.DeleteFunc(slices.Clone(tr.Nodes[b].U), func(x int32) bool { return x == a })
		}},
	} {
		t.Run(forge.name, func(t *testing.T) {
			tr := Build(directCases[0].sys(), Config{S: directCases[0].s})
			tr.BuildLists()
			tr.NearField()
			for a := range tr.Nodes {
				if i := slices.IndexFunc(tr.Nodes[a].U, func(b int32) bool { return b != int32(a) }); tr.Nodes[a].IsVisibleLeaf() && i >= 0 {
					forge.edit(tr, int32(a), tr.Nodes[a].U[i])
					break
				}
			}
			tr.nearRowsOK = false
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "octree: near row") {
					t.Fatalf("the near schedule accepted a broken row (recovered %q)", msg)
				}
			}()
			tr.NearField()
		})
	}
}
