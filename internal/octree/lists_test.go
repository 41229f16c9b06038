package octree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"afmm/internal/distrib"
	"afmm/internal/geom"
	"afmm/internal/particle"
)

// cloneForLists returns a tree with the same structure as t (sharing the
// particle system, whose positions the dual traversal never reads) but no
// list state, so a from-scratch RebuildLists on the clone is the reference
// for the original's incrementally repaired lists.
func cloneForLists(t *Tree) *Tree {
	c := &Tree{Sys: t.Sys, Root: t.Root, Cfg: t.Cfg, directK: t.directK}
	c.Cfg.Pool = nil
	c.Nodes = make([]Node, len(t.Nodes))
	copy(c.Nodes, t.Nodes)
	for i := range c.Nodes {
		c.Nodes[i].U = nil
		c.Nodes[i].V = nil
	}
	return c
}

// requireListsEqual asserts element-wise list equality (the cached/repaired
// lists must be bit-for-bit the from-scratch build, not merely set-equal —
// both are kept in canonical ascending order).
func requireListsEqual(t testing.TB, got, want *Tree, stage string) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s: node count %d vs %d", stage, len(got.Nodes), len(want.Nodes))
	}
	for i := range got.Nodes {
		if !slices.Equal(got.Nodes[i].U, want.Nodes[i].U) {
			t.Fatalf("%s: node %d U mismatch\n got %v\nwant %v",
				stage, i, got.Nodes[i].U, want.Nodes[i].U)
		}
		if !slices.Equal(got.Nodes[i].V, want.Nodes[i].V) {
			t.Fatalf("%s: node %d V mismatch\n got %v\nwant %v",
				stage, i, got.Nodes[i].V, want.Nodes[i].V)
		}
	}
}

// checkListRef asserts the reverse-reference index is exactly the inverse
// of the current lists (repair depends on it to find stale references).
func checkListRef(t testing.TB, tr *Tree, stage string) {
	t.Helper()
	want := make([][]int32, len(tr.Nodes))
	for i := range tr.Nodes {
		ti := int32(i)
		for _, s := range tr.Nodes[i].U {
			want[s] = append(want[s], ti)
		}
		for _, s := range tr.Nodes[i].V {
			want[s] = append(want[s], ti)
		}
	}
	for i := range want {
		var got []int32
		if i < len(tr.listRef) {
			got = append(got, tr.listRef[i]...)
		}
		slices.Sort(got)
		slices.Sort(want[i])
		if !slices.Equal(got, want[i]) {
			t.Fatalf("%s: listRef[%d] mismatch\n got %v\nwant %v", stage, i, got, want[i])
		}
	}
}

// mutate applies one random structural or occupancy edit and reports a
// label for failure messages.
func mutate(tr *Tree, rng *rand.Rand, amp float64) string {
	switch rng.Intn(5) {
	case 0: // collapse a random collapsible parent
		var cands []int32
		tr.WalkVisible(func(ni int32) {
			n := &tr.Nodes[ni]
			if n.IsVisibleLeaf() {
				return
			}
			for _, ci := range n.Children {
				if ci != NilNode && !tr.Nodes[ci].IsVisibleLeaf() {
					return
				}
			}
			cands = append(cands, ni)
		})
		if len(cands) > 0 {
			ni := cands[rng.Intn(len(cands))]
			tr.Collapse(ni)
			return fmt.Sprintf("collapse %d", ni)
		}
		return "collapse none"
	case 1: // push down a random visible leaf
		leaves := tr.VisibleLeaves()
		for k := 0; k < 8; k++ {
			ni := leaves[rng.Intn(len(leaves))]
			if tr.PushDown(ni) {
				return fmt.Sprintf("pushdown %d", ni)
			}
		}
		return "pushdown none"
	case 2: // move bodies and refill (occupancy changes, maybe flips)
		sys := tr.Sys
		for i := range sys.Pos {
			d := geom.Vec3{
				X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64(),
			}.Scale(amp)
			sys.Pos[i] = sys.Pos[i].Add(d)
		}
		tr.Refill()
		return "refill"
	case 3:
		c, p := tr.EnforceS()
		return fmt.Sprintf("enforceS %d/%d", c, p)
	default: // several edits in one batch before the next BuildLists
		var lbl string
		for k := 0; k < 3; k++ {
			lbl = mutate(tr, rng, amp)
		}
		return "batch " + lbl
	}
}

// TestListRepairMatchesFromScratch is the satellite property test: after
// random Collapse/PushDown/EnforceS/Refill sequences, the repaired lists
// must equal a from-scratch build on a structural clone, element for
// element, and the reverse index must stay consistent.
func TestListRepairMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sys := distrib.Plummer(1500, 1, 1, 5)
	tr := Build(sys, Config{S: 24})
	tr.BuildLists()
	for step := 0; step < 60; step++ {
		lbl := mutate(tr, rng, 0.03)
		tr.BuildLists()
		ref := cloneForLists(tr)
		ref.RebuildLists()
		stage := fmt.Sprintf("step %d (%s)", step, lbl)
		requireListsEqual(t, tr, ref, stage)
		checkListRef(t, tr, stage)
	}
	st := tr.ListBuildStats()
	if st.Repairs == 0 {
		t.Fatalf("sequence exercised no repairs: %+v", st)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestListRepairValidatesSmall re-runs the property on a system small
// enough for the exhaustive exactly-once pair check.
func TestListRepairValidatesSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sys := distrib.Plummer(160, 1, 1, 8)
	tr := Build(sys, Config{S: 8})
	tr.BuildLists()
	for step := 0; step < 40; step++ {
		lbl := mutate(tr, rng, 0.05)
		tr.BuildLists()
		stage := fmt.Sprintf("step %d (%s)", step, lbl)
		if err := tr.ValidateLists(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		ref := cloneForLists(tr)
		ref.RebuildLists()
		requireListsEqual(t, tr, ref, stage)
	}
}

// TestListCacheCounters pins the cache behavior the balancer's cost
// accounting relies on: an unchanged step skips all dual-traversal work, a
// local edit repairs, and only Rebuild forces the full traversal.
func TestListCacheCounters(t *testing.T) {
	sys := distrib.Plummer(3000, 1, 1, 9)
	tr := Build(sys, Config{S: 48})
	tr.BuildLists()
	if st := tr.ListBuildStats(); st.FullBuilds != 1 || st.Repairs != 0 || st.Skips != 0 {
		t.Fatalf("after first build: %+v", st)
	}
	if w := tr.LastListWork(); !w.Full || w.Pairs == 0 {
		t.Fatalf("first build work: %+v", w)
	}
	epoch := tr.ListEpoch()

	// Observation-state step: nothing changed, BuildLists must do zero
	// dual-traversal work and keep the epoch.
	tr.BuildLists()
	if st := tr.ListBuildStats(); st.FullBuilds != 1 || st.Skips != 1 {
		t.Fatalf("unchanged step did not skip: %+v", st)
	}
	if w := tr.LastListWork(); w.Full || w.Pairs != 0 {
		t.Fatalf("skip reported work: %+v", w)
	}
	if tr.ListEpoch() != epoch {
		t.Fatalf("skip changed epoch %d -> %d", epoch, tr.ListEpoch())
	}

	// Refill without movement keeps occupancy, so the next BuildLists
	// still skips.
	tr.Refill()
	tr.BuildLists()
	if st := tr.ListBuildStats(); st.FullBuilds != 1 || st.Skips != 2 {
		t.Fatalf("static refill did not skip: %+v", st)
	}

	// A local edit triggers a repair (never a full rebuild) and bumps the
	// epoch.
	var target int32 = -1
	tr.WalkVisible(func(ni int32) {
		n := &tr.Nodes[ni]
		if target >= 0 || n.IsVisibleLeaf() {
			return
		}
		for _, ci := range n.Children {
			if ci != NilNode && !tr.Nodes[ci].IsVisibleLeaf() {
				return
			}
		}
		target = ni
	})
	if target < 0 || !tr.Collapse(target) {
		t.Fatalf("no collapsible node found")
	}
	tr.BuildLists()
	if st := tr.ListBuildStats(); st.FullBuilds != 1 || st.Repairs != 1 {
		t.Fatalf("edit did not repair: %+v", st)
	}
	if w := tr.LastListWork(); w.Full || w.Pairs == 0 {
		t.Fatalf("repair work: %+v", w)
	}
	if tr.ListEpoch() == epoch {
		t.Fatal("repair did not bump epoch")
	}

	// Rebuild invalidates everything: the next BuildLists is full again.
	tr.Rebuild(48)
	tr.BuildLists()
	if st := tr.ListBuildStats(); st.FullBuilds != 2 {
		t.Fatalf("rebuild did not force full build: %+v", st)
	}

	// With the cache disabled every BuildLists is a full traversal.
	sys2 := distrib.Plummer(1000, 1, 1, 9)
	tr2 := Build(sys2, Config{S: 48, NoListCache: true})
	tr2.BuildLists()
	tr2.BuildLists()
	if st := tr2.ListBuildStats(); st.FullBuilds != 2 || st.Skips != 0 || st.Repairs != 0 {
		t.Fatalf("NoListCache stats: %+v", st)
	}
}

// TestNearScheduleMatchesLists checks the CSR schedule against the U lists
// it flattens, and that refills refresh weights without rebuilding the
// topology.
func TestNearScheduleMatchesLists(t *testing.T) {
	sys := distrib.Plummer(2000, 1, 1, 3)
	tr := Build(sys, Config{S: 32})
	tr.BuildLists()
	sch := tr.NearField()
	if !slices.Equal(sch.Leaves, tr.VisibleLeaves()) {
		t.Fatal("schedule rows are not the visible leaves in DFS order")
	}
	var total int64
	for r := 0; r < sch.Rows(); r++ {
		ni := sch.Leaves[r]
		if !slices.Equal(sch.Row(r), tr.Nodes[ni].U) {
			t.Fatalf("row %d != U(%d)", r, ni)
		}
		var srcs int64
		for _, si := range sch.Row(r) {
			srcs += int64(tr.Nodes[si].Count())
		}
		w := int64(tr.Nodes[ni].Count()) * srcs
		if sch.Priced(r) != w { // no V entry is summed directly here
			t.Fatalf("row %d weight %d, want %d", r, sch.Priced(r), w)
		}
		total += w
	}
	if sch.Total() != total {
		t.Fatalf("Total %d, want %d", sch.Total(), total)
	}
	if ops := tr.CountOps(); ops.P2P != total {
		t.Fatalf("schedule total %d != CountOps P2P %d", total, ops.P2P)
	}

	// A refill with small motion (same structure) must reuse the topology
	// and refresh weights to the new occupancies.
	rng := rand.New(rand.NewSource(4))
	for i := range sys.Pos {
		sys.Pos[i] = sys.Pos[i].Add(geom.Vec3{
			X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64(),
		}.Scale(0.01))
	}
	tr.Refill()
	tr.BuildLists()
	sch2 := tr.NearField()
	if sch2 != sch {
		t.Fatal("schedule cache rebuilt instead of reused")
	}
	if tr.ListBuildStats().FullBuilds != 1 {
		t.Fatalf("refill forced a full list build: %+v", tr.ListBuildStats())
	}
	if ops := tr.CountOps(); ops.P2P != sch2.Total() {
		t.Fatalf("refreshed total %d != CountOps P2P %d", sch2.Total(), ops.P2P)
	}
}

// FuzzListRepair drives arbitrary edit scripts against the list cache and
// checks the repaired lists against a from-scratch build every time. Run
// with `go test -fuzz FuzzListRepair`; the seeds execute as normal tests.
func FuzzListRepair(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, []byte{0, 1, 2, 3, 4})
	f.Add(make([]byte, 120), []byte{2, 2, 2})
	f.Add([]byte{255, 0, 128, 7, 9, 11, 200, 100, 50, 25, 12, 6}, []byte{4, 0, 3, 1, 2, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte, script []byte) {
		if len(data) < 6 || len(script) == 0 || len(script) > 24 {
			return
		}
		n := len(data) / 6
		if n > 200 {
			n = 200
		}
		sys := particle.New(n)
		for i := 0; i < n; i++ {
			b := data[i*6:]
			u := func(k int) float64 {
				return (float64(binary.LittleEndian.Uint16(b[k*2:]))/65535 - 0.5) * 20
			}
			sys.Pos[i] = geom.Vec3{X: u(0), Y: u(1), Z: u(2)}
		}
		tr := Build(sys, Config{S: 4})
		tr.SetDirectK(6)
		tr.BuildLists()
		tr.M2LClasses()
		for k, op := range script {
			mutate(tr, rand.New(rand.NewSource(int64(op)*977+int64(k))), 0.2)
			tr.BuildLists()
			ref := cloneForLists(tr)
			ref.RebuildLists()
			requireListsEqual(t, tr, ref, fmt.Sprintf("op %d (%d)", k, op))
			checkListRef(t, tr, fmt.Sprintf("op %d (%d)", k, op))
			checkClassSchedule(t, tr, ref, fmt.Sprintf("op %d (%d)", k, op))
			if n <= 40 {
				if err := tr.ValidateLists(); err != nil {
					t.Fatalf("op %d: %v", k, err)
				}
			}
		}
	})
}

// TestListStatsCumulativeAcrossRebuild pins the contract the per-step
// consumers depend on: counters are cumulative, survive Rebuild, and Sub
// yields per-interval deltas.
func TestListStatsCumulativeAcrossRebuild(t *testing.T) {
	sys := distrib.Plummer(2000, 1, 1, 11)
	tr := Build(sys, Config{S: 48})
	tr.BuildLists()
	tr.BuildLists() // skip
	st := tr.ListBuildStats()
	if st.FullBuilds != 1 || st.Skips != 1 || st.Pairs == 0 {
		t.Fatalf("setup stats: %+v", st)
	}

	// Rebuild must NOT reset the counters (the balancer rebuilds the tree
	// mid-trajectory; history has to survive).
	tr.Rebuild(32)
	tr.BuildLists()
	st2 := tr.ListBuildStats()
	if st2.FullBuilds != 2 || st2.Skips != 1 {
		t.Fatalf("Rebuild zeroed cumulative counters: %+v", st2)
	}
	if st2.Pairs <= st.Pairs {
		t.Fatalf("second full build added no pair visits: %d -> %d", st.Pairs, st2.Pairs)
	}

	// Sub gives the interval delta.
	d := st2.Sub(st)
	if d.FullBuilds != 1 || d.Skips != 0 || d.Pairs != st2.Pairs-st.Pairs {
		t.Fatalf("Sub delta wrong: %+v", d)
	}
}

// TestListStatsStepDelta drives the recorder's usage pattern: snapshot
// before BuildLists, difference after, classify the step.
func TestListStatsStepDelta(t *testing.T) {
	sys := distrib.Plummer(2000, 1, 1, 13)
	tr := Build(sys, Config{S: 48})
	classify := func() string {
		before := tr.ListBuildStats()
		tr.BuildLists()
		d := tr.ListBuildStats().Sub(before)
		switch {
		case d.FullBuilds > 0:
			return "full"
		case d.Repairs > 0:
			return "repair"
		default:
			return "skip"
		}
	}
	if got := classify(); got != "full" {
		t.Fatalf("first build classified %q", got)
	}
	if got := classify(); got != "skip" {
		t.Fatalf("unchanged step classified %q", got)
	}
	tr.Rebuild(tr.Cfg.S)
	if got := classify(); got != "full" {
		t.Fatalf("post-rebuild step classified %q", got)
	}
}
