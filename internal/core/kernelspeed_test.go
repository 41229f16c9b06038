package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"afmm/internal/distrib"
	"afmm/internal/expansion"
	"afmm/internal/geom"
	"afmm/internal/octree"
	"afmm/internal/particle"
	"afmm/internal/telemetry"
)

// solveBoth runs two solvers on cloned systems — one solving through the
// class table, the other stepped by the serial reference, which never
// builds one — and returns both systems for comparison.
func solveBoth(t *testing.T, sys *particle.System, cfg Config, steps int) (*particle.System, *particle.System) {
	t.Helper()
	sysA := sys.Clone()
	sysB := sys.Clone()
	a := NewSolver(sysA, cfg)
	b := NewSolver(sysB, cfg)
	for i := 0; i < steps; i++ {
		a.Solve()
		serialStep(b)
	}
	if a.m2l.Tab == nil {
		t.Fatal("table solver did not build a class table")
	}
	return sysA, sysB
}

// TestM2LTableSolveBitIdentical is the end-to-end bit-identity check: a
// whole solve through the class table must equal the reference-form
// solve exactly, potentials and accelerations alike.
func TestM2LTableSolveBitIdentical(t *testing.T) {
	for _, seed := range []int64{7, 19} {
		sys := distrib.Plummer(1500, 1, 1, seed)
		sysA, sysB := solveBoth(t, sys, Config{P: 8, S: 24}, 2)
		for i := range sysA.Phi {
			if sysA.Phi[i] != sysB.Phi[i] {
				t.Fatalf("seed %d: phi[%d] differs: %v vs %v", seed, i, sysA.Phi[i], sysB.Phi[i])
			}
			if sysA.Acc[i] != sysB.Acc[i] {
				t.Fatalf("seed %d: acc[%d] differs: %v vs %v", seed, i, sysA.Acc[i], sysB.Acc[i])
			}
		}
	}
}

// TestM2LTableStatsReported checks the schedule statistics surface through
// the solver accessor and the telemetry record.
func TestM2LTableStatsReported(t *testing.T) {
	rec := telemetry.New(telemetry.Options{Keep: true})
	sys := distrib.Plummer(1200, 1, 1, 3)
	s := NewSolver(sys, Config{P: 6, S: 24, Rec: rec})
	rec.StartStep(0)
	s.Solve()
	rec.EndStep()
	classes, pairs, reused, fresh := s.M2LTableStats()
	if classes <= 0 || pairs <= 0 {
		t.Fatalf("no table stats: classes=%d pairs=%d", classes, pairs)
	}
	if reused != 0 || fresh != int64(classes) {
		t.Fatalf("first build reused %d pairs and created %d of %d classes", reused, fresh, classes)
	}
	steps := rec.Steps()
	if len(steps) != 1 {
		t.Fatalf("expected 1 step record, got %d", len(steps))
	}
	r := steps[0]
	if r.M2LClasses != classes || r.M2LPairs != pairs {
		t.Fatalf("record (%d, %d) disagrees with stats (%d, %d)",
			r.M2LClasses, r.M2LPairs, classes, pairs)
	}
	if !r.M2LRebuilt {
		t.Fatal("first solve should report a table rebuild")
	}
}

// TestM2LRowsReusedReported: the step record says how incremental the
// class build was — a full list build carries no row and creates every
// class, a repair step carries the rows it did not touch.
func TestM2LRowsReusedReported(t *testing.T) {
	rec := telemetry.New(telemetry.Options{Keep: true})
	s := NewSolver(distrib.Plummer(2000, 1, 1, 5), Config{P: 4, S: 24, Rec: rec})
	rec.StartStep(0)
	s.Solve()
	rec.EndStep()
	for _, li := range s.Tree.VisibleLeaves() {
		if s.Tree.PushDown(li) {
			break
		}
	}
	rec.StartStep(1)
	s.Solve()
	rec.EndStep()
	steps := rec.Steps()
	full, repair := steps[0], steps[1]
	if full.Lists.Full != 1 || full.M2LRowsReused != 0 || full.M2LClassesNew != int64(full.M2LClasses) {
		t.Fatalf("full build: lists %+v, reused %d, new %d of %d classes",
			full.Lists, full.M2LRowsReused, full.M2LClassesNew, full.M2LClasses)
	}
	if repair.Lists.Repairs != 1 || repair.M2LRowsReused <= 0 || !repair.M2LRebuilt {
		t.Fatalf("repair step: lists %+v, reused %d, rebuilt %v", repair.Lists, repair.M2LRowsReused, repair.M2LRebuilt)
	}
	if _, pairs, reused, _ := s.M2LTableStats(); reused >= pairs {
		t.Fatalf("repair carried %d of %d pairs: nothing was re-derived", reused, pairs)
	}
}

// TestSolveAllocationCeiling is the allocs/step gate: once slabs, lists,
// the class table and the workspaces are warm, a Solve allocates only
// per-step structures (the virtual-CPU replay's task graph, chunk closures,
// the step graph), never per translation or per V list. The ceiling is
// 1.5x the measured count (2466 at this size); before the factored table
// the same solve made 23 309 allocations.
func TestSolveAllocationCeiling(t *testing.T) {
	const ceiling = 3700
	s := NewSolver(distrib.Plummer(2000, 1, 1, 3), Config{P: 4, S: 32})
	s.Solve()
	s.Solve()
	if got := testing.AllocsPerRun(5, func() { s.Solve() }); got > ceiling {
		t.Errorf("warmed Solve makes %.0f allocations, ceiling %d", got, ceiling)
	} else {
		t.Logf("%.0f allocations per warmed Solve", got)
	}
}

// TestCellShiftsAllocationFree: after the first step has prepared the
// level rows, a field's M2M and L2L over the whole tree allocate nothing,
// at width 1 (gravity) and width 4 (the Stokeslet's layout).
func TestCellShiftsAllocationFree(t *testing.T) {
	s := NewSolver(distrib.Plummer(2000, 1, 1, 3), Config{P: 6, S: 32})
	s.Solve()
	w := expansion.NewWorkspace(s.Cfg.P)
	wide := NewCells(s.Tree, s.Sys, s.Cfg.P, 4, &s.m2l)
	wide.Reset()
	for _, c := range []*Cells{&s.Field.(*GravityField).Cells, &wide} {
		sweep := func() {
			for ni := range s.Tree.Nodes {
				if n := &s.Tree.Nodes[ni]; n.Count() > 0 && !n.IsVisibleLeaf() {
					c.M2M(w, int32(ni))
				}
				c.L2L(w, int32(ni))
			}
		}
		sweep() // the first four-column call makes the scratch
		if a := testing.AllocsPerRun(5, sweep); a != 0 {
			t.Errorf("width %d: M2M and L2L over the tree allocate %v times, want 0", c.Width(), a)
		}
	}
}

// TestNearChunksMatchScalarReference: the gravity near chunks and the
// fold — rows flushed through further kernel calls when their upper half
// holds more than RowSpans entries — equal mutualNear, the scalar
// reference of the tree's order, bit for bit; so does the same near field
// cut into two shares over private fields, each reading the other's
// leaves from ghost copies (how dmem nodes run it); a warm sweep of the
// chunks and folds allocates nothing, whole or in shares; and a share
// lacking the ghost copy of a remote source fails on it rather than read
// the particle arrays, which private fields share.
func TestNearChunksMatchScalarReference(t *testing.T) {
	s := NewSolver(distrib.Plummer(3000, 1, 1, 5), Config{P: 4, S: 16})
	s.Solve()
	f := s.Field.(*GravityField)
	sys, sch := s.Sys, s.Tree.NearField()
	long := 0
	for r := 0; r < sch.Rows(); r++ {
		if int(sch.RowPtr[r+1]-sch.Upper[r]) > RowSpans {
			long++
		}
	}
	if long == 0 {
		t.Fatalf("no upper half holds more than %d entries: the buffer never flushed", RowSpans)
	}
	n := int32(sys.Len())
	mid := s.Tree.SnapToLeafEnd(n / 2)
	ghosts := make([]GhostLeaf, len(s.Tree.Nodes))
	for _, li := range sch.Leaves {
		ghosts[li] = f.PackGhost(li)
	}
	halves := [2]*GravityField{f.Private().(*GravityField), f.Private().(*GravityField)}
	whole := func() {
		sys.ResetAccumulators()
		for c := range octree.NearChunks {
			f.Near(sch, c, 0, n, nil)
		}
		for _, li := range sch.Leaves {
			f.Fold(sch, li)
		}
	}
	split := func() {
		sys.ResetAccumulators()
		cuts := [3]int32{0, mid, n}
		for h, hf := range halves {
			for c := range octree.NearChunks {
				hf.Near(sch, c, cuts[h], cuts[h+1], ghosts)
			}
		}
		for _, li := range sch.Leaves {
			halves[min(1, int(s.Tree.Nodes[li].Start/mid))].Fold(sch, li)
		}
	}
	sys.ResetAccumulators()
	mutualNear(sys, s.Tree, sch, f.Kernel)
	phi, acc := slices.Clone(sys.Phi), slices.Clone(sys.Acc)
	bits := func(v float64, a geom.Vec3) [4]uint64 {
		return [4]uint64{math.Float64bits(v), math.Float64bits(a.X), math.Float64bits(a.Y), math.Float64bits(a.Z)}
	}
	for _, run := range []struct {
		name string
		f    func()
	}{{"whole", whole}, {"shares", split}} {
		run.f()
		run.f() // the kept reaction buffers hold the last step's sums
		for i := range phi {
			if bits(phi[i], acc[i]) != bits(sys.Phi[i], sys.Acc[i]) {
				t.Fatalf("%s: body %d: chunks %v %v, scalar reference %v %v", run.name, i, sys.Phi[i], sys.Acc[i], phi[i], acc[i])
			}
		}
		if a := testing.AllocsPerRun(3, run.f); a != 0 {
			t.Errorf("%s: the near chunks allocate %v times, want 0", run.name, a)
		}
	}
	// A source of share 0's upper halves in share 1 whose own row lies in
	// another chunk, so only the one-way span reads its ghost.
	for c := range octree.NearChunks {
		rlo, rhi := sch.Chunk(c)
		for r := rlo; r < rhi; r++ {
			if s.Tree.Nodes[sch.Leaves[r]].Start >= mid {
				continue
			}
			for e := sch.Upper[r]; e < sch.RowPtr[r+1]; e++ {
				if b := sch.Srcs[e]; sch.SrcStart[e] >= mid && (sch.RowOf(b) < rlo || sch.RowOf(b) >= rhi) {
					lacking := slices.Clone(ghosts)
					lacking[b] = GhostLeaf{}
					defer func() {
						if recover() == nil {
							t.Errorf("chunk %d without leaf %d's ghost copy ran to the end", c, b)
						}
					}()
					halves[0].Near(sch, c, 0, mid, lacking)
					return
				}
			}
		}
	}
	t.Fatal("no upper half of share 0 reads a share-1 leaf whose row is in another chunk")
}

// TestUpReadsGhostCopy: a leaf's P2M over a ghost copy of its bodies — how
// a dmem node forms a remote leaf's multipole — equals the owner's, bit
// for bit, and reads the copy, not the shared arrays.
func TestUpReadsGhostCopy(t *testing.T) {
	s := NewSolver(distrib.Plummer(2000, 1, 1, 5), Config{P: 4, S: 16})
	s.Solve()
	f := s.Field.(*GravityField)
	w := expansion.NewWorkspace(f.P)
	ghosts := make([]GhostLeaf, len(s.Tree.Nodes))
	leaves := s.Tree.VisibleLeaves()
	for _, li := range leaves {
		ghosts[li] = f.PackGhost(li)
	}
	own := slices.Clone(f.mpoles[0])
	f.Reset()
	for _, li := range leaves {
		f.Up(w, li, ghosts)
	}
	for _, li := range leaves {
		for i, c := range f.Mpole(0, li).C {
			if math.Float64bits(real(c)) != math.Float64bits(real(own[int(li)*f.packed+i])) ||
				math.Float64bits(imag(c)) != math.Float64bits(imag(own[int(li)*f.packed+i])) {
				t.Fatalf("leaf %d coefficient %d: from the copy %v, the owner's %v", li, i, c, own[int(li)*f.packed+i])
			}
		}
	}
	li := leaves[0]
	for i := range ghosts[li].Mass {
		ghosts[li].Mass[i] *= 2
	}
	f.Reset()
	f.Up(w, li, ghosts)
	if got, want := f.Mpole(0, li).C[0], 2*own[int(li)*f.packed]; got != want {
		t.Fatalf("doubled ghost masses: monopole %v, want %v", got, want)
	}
}

// downRunTree is a solved gravity tree whose down sweep has what the theta
// batching must get right: cells with four or more translated partners at
// one polar angle, cells with exactly three, and cells whose V list is
// summed directly entry by entry.
func downRunTree(t *testing.T) (*Solver, *GravityField) {
	t.Helper()
	s := NewSolver(distrib.Plummer(1500, 1, 1, 9), Config{P: 4, S: 8})
	s.Solve()
	tr := s.Tree
	var quads, triples, allDirect int
	for ni := range tr.Nodes {
		n := &tr.Nodes[ni]
		if len(n.V) == 0 {
			continue
		}
		mask := tr.DirectMask(int32(ni))
		perTheta := map[float64]int{}
		for k, vi := range n.V {
			if !mask[k] {
				_, theta, _ := tr.Nodes[vi].Box.Center.Sub(n.Box.Center).Spherical()
				perTheta[theta]++
			}
		}
		if len(perTheta) == 0 {
			allDirect++
		}
		for _, c := range perTheta {
			if c >= 4 {
				quads++
			}
			if c == 3 {
				triples++
			}
		}
	}
	if quads == 0 || triples == 0 || allDirect == 0 {
		t.Fatalf("tree lacks a case: %d same-theta quads, %d triples, %d fully direct V lists", quads, triples, allDirect)
	}
	return s, s.Field.(*GravityField)
}

// TestDownRunMatchesPerCell: Down over a level's cells as one run, split
// in two at every point, and split at random points into many runs leaves
// every local bit-identical to one Down call per cell — the theta batch of
// a chunk never changes a cell's bits.
func TestDownRunMatchesPerCell(t *testing.T) {
	s, f := downRunTree(t)
	rng := rand.New(rand.NewSource(4))
	w := expansion.NewWorkspace(s.Cfg.P)
	slab := f.locals[0]
	for lv, cells := range s.Tree.LevelOrder() {
		done := slices.Clone(slab) // the solved locals: every parent final
		redo := func(runs ...[]int32) []complex128 {
			copy(slab, done)
			for _, ni := range cells {
				clear(f.Local(0, ni).C)
			}
			for _, run := range runs {
				f.Down(w, run)
			}
			return slices.Clone(slab)
		}
		var single [][]int32
		for i := range cells {
			single = append(single, cells[i:i+1])
		}
		want := redo(single...)
		check := func(how string, runs ...[]int32) {
			t.Helper()
			got := redo(runs...)
			for k := range want {
				if math.Float64bits(real(got[k])) != math.Float64bits(real(want[k])) ||
					math.Float64bits(imag(got[k])) != math.Float64bits(imag(want[k])) {
					t.Fatalf("level %d, %s: coefficient %d: run %v, per cell %v", lv, how, k, got[k], want[k])
				}
			}
		}
		check("whole level", cells)
		for cut := 1; cut < len(cells); cut++ {
			check(fmt.Sprintf("cut at %d", cut), cells[:cut], cells[cut:])
		}
		for trial := 0; trial < 4; trial++ {
			var runs [][]int32
			for lo := 0; lo < len(cells); {
				hi := min(len(cells), lo+1+rng.Intn(12))
				runs = append(runs, cells[lo:hi])
				lo = hi
			}
			check(fmt.Sprintf("random runs %d", trial), runs...)
		}
		copy(slab, done)
	}
}

// TestDownChunkAllocationFree: a down chunk of the step graph — one Down
// over its run, the theta batch's scratch in the workspace — allocates
// nothing once the workspaces have run a step.
func TestDownChunkAllocationFree(t *testing.T) {
	s := NewSolver(distrib.Plummer(3000, 1, 1, 3), Config{P: 6, S: 16})
	s.Solve()
	spec := s.StepSpec(s.Field, s.ws, nil)
	levels := s.Tree.LevelOrder()
	deepest := levels[len(levels)-1]
	for _, cells := range [][]int32{levels[2], deepest, deepest[:len(deepest)/2]} {
		chunk := spec.DownChunk(cells)
		chunk()
		if a := testing.AllocsPerRun(5, chunk); a != 0 {
			t.Errorf("a down chunk over %d cells allocates %v times, want 0", len(cells), a)
		}
	}
}

// BenchmarkThetaDownSweep times the gravity down sweep of a Plummer tree
// (N = 20000, S = 64, as grav-far-p8) level by level on one workspace, in
// two cuts of the same cells: every level in 8 runs of equal cell count
// (the step graph's chunks at two workers), and one run per cell, where a
// theta batch can only pair a cell with itself. ns/pair is per translated
// V pair, L2L included; the two cuts leave the same bits.
func BenchmarkThetaDownSweep(b *testing.B) {
	for _, p := range []int{4, 8} {
		s := NewSolver(distrib.Plummer(20000, 1, 1, 7), Config{P: p, S: 64})
		s.Solve()
		f := s.Field.(*GravityField)
		var pairs int
		for ni := range s.Tree.Nodes {
			pairs += s.Tree.FarPairs(int32(ni))
		}
		levels := s.Tree.LevelOrder()
		w := expansion.NewWorkspace(p)
		for _, cut := range []string{"chunks", "cells"} {
			var runs [][]int32
			for _, cells := range levels {
				n := 8
				if cut == "cells" {
					n = len(cells)
				}
				for i := 0; i < n; i++ {
					if lo, hi := i*len(cells)/n, (i+1)*len(cells)/n; lo < hi {
						runs = append(runs, cells[lo:hi])
					}
				}
			}
			b.Run(fmt.Sprintf("p=%d/%s", p, cut), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, run := range runs {
						f.Down(w, run)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
			})
		}
	}
}
