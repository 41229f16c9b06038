package octree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"afmm/internal/distrib"
	"afmm/internal/geom"
	"afmm/internal/particle"
)

// classifiedPairs counts the pairs the next M2LClasses must classify
// rather than carry: all of them after a full list build, else those of
// the rows a repair touched or that the previous schedule did not cover.
// Call it before M2LClasses.
func classifiedPairs(tr *Tree) int64 {
	full := tr.farFull || tr.farSched.Gen == 0
	carry := len(tr.farSched.RowPtr) - 1
	var n int64
	for ni := range tr.Nodes {
		if full || ni >= carry || (ni < len(tr.farTouched) && tr.farTouched[ni]) {
			n += int64(len(tr.Nodes[ni].V))
		}
	}
	return n
}

// cmpDir orders directions lexicographically; it reports 0 exactly when
// the two compare equal (a zero of either sign included), like the
// schedule's probe.
func cmpDir(a, b geom.Vec3) int {
	return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y), cmp.Compare(a.Z, b.Z))
}

// checkClassSchedule asserts the schedule's invariants on tr's current
// lists, and, against ref (a from-scratch list build and classification
// of the same tree), that it groups the pairs into the same classes.
func checkClassSchedule(t testing.TB, tr, ref *Tree, stage string) {
	t.Helper()
	cls := tr.M2LClasses()
	var pairs int64
	for ni := range tr.Nodes {
		n := &tr.Nodes[ni]
		row := cls.Row(int32(ni))
		if len(row) != len(n.V) {
			t.Fatalf("%s: node %d: row has %d classes for %d V entries", stage, ni, len(row), len(n.V))
		}
		for k, vi := range n.V {
			d := tr.Nodes[vi].Box.Center.Sub(n.Box.Center)
			if c := row[k]; c < 0 || int(c) >= cls.Classes() || cls.Dirs[c] != d {
				t.Fatalf("%s: node %d pair %d: class %d does not hold exact dir %v", stage, ni, k, c, d)
			}
			pairs++
		}
	}
	if pairs != cls.Pairs {
		t.Fatalf("%s: schedule counts %d pairs, walk found %d", stage, cls.Pairs, pairs)
	}
	if len(cls.PairsPerClass) != cls.Classes() {
		t.Fatalf("%s: PairsPerClass length %d != classes %d", stage, len(cls.PairsPerClass), cls.Classes())
	}
	used := make([]int64, cls.Classes())
	for _, c := range cls.Class {
		used[c]++
	}
	sorted := slices.Clone(cls.Dirs)
	slices.SortFunc(sorted, cmpDir)
	for i := 1; i < len(sorted); i++ {
		if cmpDir(sorted[i-1], sorted[i]) == 0 {
			t.Fatalf("%s: duplicate class direction %v", stage, sorted[i])
		}
	}
	var sum int64
	stale := 0
	for c := range cls.Dirs {
		if cls.PairsPerClass[c] != used[c] {
			t.Fatalf("%s: class %d counts %d pairs, rows use it %d times", stage, c, cls.PairsPerClass[c], used[c])
		}
		sum += cls.PairsPerClass[c]
		if used[c] == 0 {
			stale++
		}
	}
	if sum != cls.Pairs {
		t.Fatalf("%s: PairsPerClass sums to %d, want %d", stage, sum, cls.Pairs)
	}
	if stale > cls.Classes()-stale {
		t.Fatalf("%s: %d stale classes outnumber %d live ones", stage, stale, cls.Classes()-stale)
	}
	if ref == nil {
		return
	}
	want := ref.M2LClasses()
	if want.Classes() != cls.Classes()-stale {
		t.Fatalf("%s: %d live classes, fresh build has %d", stage, cls.Classes()-stale, want.Classes())
	}
	// Same partition: the class maps are a bijection between the two.
	toRef := make([]int32, cls.Classes())
	fromRef := make([]int32, want.Classes())
	for i := range toRef {
		toRef[i] = -1
	}
	for i := range fromRef {
		fromRef[i] = -1
	}
	for ni := range tr.Nodes {
		a, b := cls.Row(int32(ni)), want.Row(int32(ni))
		for k := range a {
			if toRef[a[k]] < 0 && fromRef[b[k]] < 0 {
				toRef[a[k]], fromRef[b[k]] = b[k], a[k]
			}
			if toRef[a[k]] != b[k] || fromRef[b[k]] != a[k] {
				t.Fatalf("%s: node %d pair %d: class %d / fresh %d break the partition", stage, ni, k, a[k], b[k])
			}
		}
	}
}

// TestM2LClassesExactDirections verifies the defining invariant of the
// class schedule: every V-list pair's class direction equals the pair's
// exact float64 translation vector, rows mirror V element-for-element,
// and no two classes share a direction (so the table is minimal).
func TestM2LClassesExactDirections(t *testing.T) {
	for _, seed := range []int64{3, 7} {
		sys := distrib.Plummer(2500, 1, 1, seed)
		tr := Build(sys, Config{S: 24})
		tr.BuildLists()
		classified := classifiedPairs(tr)
		cls := tr.M2LClasses()
		checkClassSchedule(t, tr, nil, fmt.Sprintf("seed %d", seed))
		if cls.RowsReused+classified != cls.Pairs {
			t.Fatalf("reused %d + classified %d != pairs %d", cls.RowsReused, classified, cls.Pairs)
		}
		// Classes must be far fewer than pairs (the whole point of the
		// schedule): exact direction vectors repeat across the tree, so
		// each class is shared by several pairs on average.
		if cls.Pairs > 1000 && int64(cls.Classes()) > cls.Pairs/2 {
			t.Fatalf("classes (%d) do not compress pairs (%d)", cls.Classes(), cls.Pairs)
		}
		if cls.ClassesNew != int64(cls.Classes()) {
			t.Fatalf("full build created %d of %d classes", cls.ClassesNew, cls.Classes())
		}
	}
}

// TestM2LClassesEpochCache checks the schedule is reused while the lists
// stand and rebuilt when the topology changes.
func TestM2LClassesEpochCache(t *testing.T) {
	sys := distrib.Plummer(1200, 1, 1, 11)
	tr := Build(sys, Config{S: 24})
	tr.BuildLists()
	a := tr.M2LClasses()
	b := tr.M2LClasses()
	if a != b {
		t.Fatal("schedule rebuilt without a topology change")
	}
	ep := tr.ListEpoch()
	tr.Rebuild(tr.Cfg.S)
	tr.BuildLists()
	if tr.ListEpoch() == ep {
		t.Fatal("rebuild did not bump the list epoch")
	}
	c := tr.M2LClasses()
	for ni := range tr.Nodes {
		n := &tr.Nodes[ni]
		row := c.Row(int32(ni))
		for k, vi := range n.V {
			d := tr.Nodes[vi].Box.Center.Sub(n.Box.Center)
			if c.Dirs[row[k]] != d {
				t.Fatalf("stale class after rebuild: node %d pair %d", ni, k)
			}
		}
	}
}

// TestM2LClassesFollowRepairs drives the balancer's edit pattern — bodies
// displaced and refilled, Enforce_S, sometimes two list builds before the
// schedule is read, as Predict does — through more than 50 repair epochs,
// and after each checks the incrementally carried schedule against a
// from-scratch classification of the same tree. Gen must stay put across
// repairs (unless stale classes force a compaction) and move on every
// full list build.
func TestM2LClassesFollowRepairs(t *testing.T) {
	cases := []struct {
		name string
		sys  *particle.System
	}{
		{"plummer", distrib.Plummer(2500, 1, 1, 5)},
		{"two-clusters", distrib.TwoClusters(2500, 0.3, 1, 8, 0, 9)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			tr := Build(tc.sys, Config{S: 24})
			tr.BuildLists()
			cls := tr.M2LClasses()
			gen := cls.Gen
			edit := func() {
				for i := range tc.sys.Pos {
					tc.sys.Pos[i] = tc.sys.Pos[i].Add(geom.Vec3{
						X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64(),
					}.Scale(0.01))
				}
				tr.Refill()
				tr.EnforceS()
			}
			repairs, twice, reused := 0, 0, int64(0)
			for epoch := 0; repairs < 50 || twice == 0; epoch++ {
				if epoch == 200 {
					t.Fatalf("only %d repair epochs in 200", repairs)
				}
				ls0 := tr.ListBuildStats()
				edit()
				tr.BuildLists()
				if epoch%7 == 3 {
					edit()
					tr.BuildLists()
					twice++
				}
				if epoch == 40 {
					tr.Rebuild(tr.Cfg.S)
					tr.BuildLists()
				}
				ld := tr.ListBuildStats().Sub(ls0)
				prevDirs := slices.Clone(cls.Dirs)
				slices.SortFunc(prevDirs, cmpDir)
				prevClasses := cls.Classes()
				classified := classifiedPairs(tr)
				ref := cloneForLists(tr)
				ref.RebuildLists()
				stage := fmt.Sprintf("epoch %d (%+v)", epoch, ld)
				checkClassSchedule(t, tr, ref, stage)
				if ld.FullBuilds == 0 && ld.Repairs == 0 {
					continue
				}
				// What an incremental build would leave: the previous classes
				// plus the fresh directions it had not seen.
				live := ref.M2LClasses().Classes()
				total := prevClasses
				for _, d := range ref.M2LClasses().Dirs {
					if _, seen := slices.BinarySearchFunc(prevDirs, d, cmpDir); !seen {
						total++
					}
				}
				compacted := ld.FullBuilds == 0 && 2*(total-live) > total
				switch {
				case ld.FullBuilds > 0 || compacted:
					if cls.Gen == gen {
						t.Fatalf("%s: full classification kept Gen %d", stage, gen)
					}
					if cls.RowsReused != 0 || cls.ClassesNew != int64(cls.Classes()) {
						t.Fatalf("%s: full classification reused %d pairs, created %d of %d classes",
							stage, cls.RowsReused, cls.ClassesNew, cls.Classes())
					}
				default:
					repairs++
					if cls.Gen != gen {
						t.Fatalf("%s: repair moved Gen %d -> %d", stage, gen, cls.Gen)
					}
					if cls.RowsReused+classified != cls.Pairs {
						t.Fatalf("%s: reused %d + classified %d != pairs %d", stage, cls.RowsReused, classified, cls.Pairs)
					}
					if int64(cls.Classes()) != int64(prevClasses)+cls.ClassesNew {
						t.Fatalf("%s: %d classes after %d + %d new", stage, cls.Classes(), prevClasses, cls.ClassesNew)
					}
					reused += cls.RowsReused
				}
				gen = cls.Gen
			}
			if reused == 0 {
				t.Fatal("no repair carried a row")
			}
			// With the cache off every list build is full, so every
			// classification restarts the numbering.
			nc := Build(tc.sys, Config{S: 24, NoListCache: true})
			nc.BuildLists()
			g := nc.M2LClasses().Gen
			nc.BuildLists()
			if nc.M2LClasses().Gen == g {
				t.Fatal("NoListCache list build kept the class Gen")
			}
		})
	}
}

// TestM2LClassesCompaction: once stale classes outnumber live ones the
// next classification restarts the numbering (new Gen, nothing carried,
// no stale class left), so the class count stays bounded.
func TestM2LClassesCompaction(t *testing.T) {
	tr := Build(distrib.Plummer(1500, 1, 1, 4), Config{S: 24})
	tr.BuildLists()
	cls := tr.M2LClasses()
	gen, live := cls.Gen, cls.Classes()
	// Stand-ins for classes a long run of repairs left without pairs.
	for i := 0; i < 2*live; i++ {
		cls.Dirs = append(cls.Dirs, geom.Vec3{X: 1e9 + float64(i)})
		cls.PairsPerClass = append(cls.PairsPerClass, 0)
	}
	leaves := tr.VisibleLeaves()
	for _, li := range leaves {
		if tr.PushDown(li) {
			break
		}
	}
	tr.BuildLists()
	if st := tr.ListBuildStats(); st.Repairs != 1 {
		t.Fatalf("edit did not repair: %+v", st)
	}
	cls = tr.M2LClasses()
	if cls.Gen == gen || cls.RowsReused != 0 {
		t.Fatalf("no compaction: Gen %d -> %d, %d pairs reused", gen, cls.Gen, cls.RowsReused)
	}
	ref := cloneForLists(tr)
	ref.RebuildLists()
	checkClassSchedule(t, tr, ref, "compacted")
	for _, n := range cls.PairsPerClass {
		if n == 0 {
			t.Fatalf("stale class survived compaction")
		}
	}
}

// TestM2LClassesSignedZero: the class hash treats the two zeros as the one
// value == says they are, so a direction with a -0 component finds the
// class of its +0 twin instead of opening a duplicate.
func TestM2LClassesSignedZero(t *testing.T) {
	tr := Build(distrib.Plummer(500, 1, 1, 2), Config{S: 24})
	tr.BuildLists()
	cls := tr.M2LClasses()
	nz := math.Copysign(0, -1)
	for _, pair := range [][2]geom.Vec3{
		{{X: 0, Y: 0, Z: 3}, {X: nz, Y: nz, Z: 3}},
		{{X: 0, Y: 5, Z: 0}, {X: nz, Y: 5, Z: 0}},
		{{X: 7, Y: 0, Z: 0}, {X: 7, Y: 0, Z: nz}},
	} {
		n := cls.Classes()
		a, b := tr.classOf(pair[0]), tr.classOf(pair[1])
		if a != b || cls.Classes() != n+1 {
			t.Fatalf("%v and %v got classes %d and %d (%d classes, was %d)", pair[0], pair[1], a, b, cls.Classes(), n)
		}
	}
}
