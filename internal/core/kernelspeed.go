package core

import (
	"afmm/internal/expansion"
	"afmm/internal/octree"
	"afmm/internal/sched"
	"afmm/internal/telemetry"
)

// Kernel-speed layer: the shared translation tables, prepared once per
// Solve, before the step graph runs, so workers only ever read settled
// state, and the translate-or-sum threshold.

// DirectK is the gravity solver's break-even threshold, handed to
// octree.Tree.SetDirectK: an accepted leaf–leaf pair with n_t·n_s <=
// DirectK is summed directly (one P2P of n_t·n_s body pairs) instead of
// translated (one M2L at order p). The break-even is (M2L ns per
// translation) / (P2P ns per body pair on small leaves);
// BenchmarkDirectBreakEven measures both with this repo's own kernels and
// prints the ratio beside this value. For p = 4, 8, 12 it reads 103–115,
// 318–329, 666–787 — 3.9–4.7 (p+1)², the table form of M2L being closer to
// quadratic than to its asymptotic cubic at these orders — and the
// end-to-end optimum is flat from about 0.8 of it up to 1.3
// (EXPERIMENTS.md); the low end of the flat region, 3.2 (p+1)², is kept,
// because every pair moved inflates the near field. Those readings are
// against the scalar pair walk and the scalar M2L kernel of PR 18. With the
// packed P2P body the same benchmark (five runs, scalar | packed P2P side
// by side) read 138–143 | 168–177, 449–461 | 494–513, 1072–1110 |
// 1000–1102 for p = 4, 8, 12; with the packed M2L body as well (PR 24) a
// translation costs 2.2–2.6x less and it reads 60–67 | 72–79, 182–204 |
// 202–217, 405–464 | 433–458: K = 80, 259, 540 sat at half of the packed
// break-even and now sits 1.05–1.25x above it. K is not moved here: it
// changes force bits, so it is a change of its own behind
// TestAccuracyMatrix — and a lower K trades exact pairs for truncated
// ones, so the sweep has to show the matrix no worse, not only the step
// faster. A host without AVX2 runs both scalar kernels, whose ratio is
// where PR 18 measured it (EXPERIMENTS.md, ROADMAP direction 5(a)). The
// value depends on nothing but p: not on wall-clock observations, which
// would make the operator choice, hence the force bits, differ from run to
// run, and not on the virtual machine's coefficients, whose M2L/P2P ratio
// (700, the same at every p) is far above the host's at low order. (The
// Stokes solver sets no threshold; see stokes.NewSolver.)
func DirectK(p int) int64 {
	return int64(3.2 * float64((p+1)*(p+1)))
}

// SharedM2L is the factored M2L operator table (expansion.M2LTable) of one
// tree's current interaction lists, with the class schedule it was built
// from and the list epoch it is valid for, and the M2M/L2L rows of the
// tree's levels. One value serves one tree: a Solver holds it, its Field
// and the dmem nodes' private fields translate through it, and whoever
// drives the step (Solve, or the dmem runtime) prepares it before the
// workers start.
type SharedM2L struct {
	Tab    *expansion.M2LTable
	Cls    *octree.M2LClassSchedule
	Shifts expansion.ShiftRows
	epoch  uint64
	// gen and planned are the schedule's Gen and class count the table
	// was last planned or extended for.
	gen     uint64
	planned int
}

// Prepare builds (or revalidates) the table for t's current lists: one
// Wigner/phase/radial setup per translation class, built in parallel on
// pool, invalidated by the list epoch. When the schedule kept its class
// numbering (same Gen: a list repair only appended classes) the table is
// extended by the new classes instead of re-planned.
func (m *SharedM2L) Prepare(t *octree.Tree, p int, pool *sched.Pool, rec *telemetry.Recorder) {
	m.Shifts.Cover(p, t.Nodes[t.Root].Box.Half/2, t.Cfg.MaxDepth) // every level a parent can sit at
	rebuilt := false
	if m.Tab == nil || m.epoch != t.ListEpoch() {
		cls := t.M2LClasses()
		tok := rec.Begin(telemetry.SpanM2LTable, int32(cls.Classes()))
		var lo, hi int
		if m.Tab != nil && m.gen == cls.Gen {
			lo, hi = m.Tab.Extend(cls.Dirs, cls.PairsPerClass, m.planned)
		} else {
			if m.Tab == nil {
				m.Tab = expansion.NewM2LTable(p)
			}
			hi = m.Tab.Plan(cls.Dirs, cls.PairsPerClass, 0)
		}
		pool.ParallelRange(hi-lo, func(a, b int) { m.Tab.BuildRotRange(lo+a, lo+b) })
		m.Cls, m.epoch, m.gen, m.planned = cls, t.ListEpoch(), cls.Gen, cls.Classes()
		rebuilt = true
		rec.End(tok)
	}
	rec.Update(func(r *telemetry.StepRecord) {
		r.M2LClasses, r.M2LPairs = m.Cls.Classes(), m.Cls.Pairs
		r.M2LRowsReused, r.M2LClassesNew, r.M2LRebuilt = m.Cls.RowsReused, m.Cls.ClassesNew, rebuilt
	})
}

// farRun returns the next maximal run [lo, hi) of translated pairs in node
// ni's V list at or after from — the entries the near-field schedule does
// not sum directly (octree.Tree.DirectMask); lo == len(V) when none is
// left. Both M2L forms below walk V in these runs, so every field skips the
// same pairs in the same order.
func farRun(t *octree.Tree, ni int32, from int) (lo, hi int) {
	mask := t.DirectMask(ni)
	lo = from
	for lo < len(mask) && mask[lo] {
		lo++
	}
	hi = lo
	for hi < len(mask) && !mask[hi] {
		hi++
	}
	return lo, hi
}

// M2L accumulates into column 0 of c's locals, for every cell in nodes
// (cells of one level), the translated pairs of its V list — the entries
// the near-field schedule sums directly are skipped. The run's pairs go to
// theta-batched calls (expansion.Workspace.M2LBatchTheta) of whole cells,
// so each cell takes its pairs in the canonical order whatever the run:
// theta (the polar angle of the translation vector) ascending, then
// V-list index.
func (m *SharedM2L) M2L(w *expansion.Workspace, c *Cells, nodes []int32) {
	t := c.Tree
	m.mustCover(t)
	pairs := w.Pairs(int(min(thetaBatch, m.Cls.Pairs)))
	for _, ni := range nodes {
		v, row := t.Nodes[ni].V, m.Cls.Row(ni)
		if len(pairs) > 0 && len(pairs)+len(v) > thetaBatch {
			w.M2LBatchTheta(c.locals[0], c.mpoles[0], pairs, m.Tab)
			pairs = pairs[:0]
		}
		for lo, hi := farRun(t, ni, 0); lo < len(v); lo, hi = farRun(t, ni, hi) {
			for k := lo; k < hi; k++ {
				pairs = append(pairs, expansion.M2LPair{L: ni, M: v[k], Class: row[k]})
			}
		}
	}
	w.M2LBatchTheta(c.locals[0], c.mpoles[0], pairs, m.Tab)
}

// thetaBatch bounds the pairs of one theta-batched call: M2L hands a run
// over in batches of whole cells of at most this many pairs (a cell with
// more is a batch of its own), so the workspace's pair scratch (28 bytes a
// pair) has a fixed size however long the run. On grav-far-p8's tree at 8
// down chunks a level, whole chunks (up to 10.9k pairs) put 83.2% of the
// translated pairs in full quads, batches of at most 8192 pairs 81.8%,
// and one cell at a time 24.9%.
const thetaBatch = 8192

// M2L4 is M2L for four expansions per cell over one geometry (the
// Stokeslet's harmonic passes): srcs[i].M[c] translates into l[c] through
// the table's four-column form, in V-list order — per column the
// arithmetic of the table's width-1 form.
func (m *SharedM2L) M2L4(w *expansion.Workspace, l *[4]expansion.Expansion, t *octree.Tree, ni int32, srcs []expansion.M2LSource4) {
	m.mustCover(t)
	for lo, hi := farRun(t, ni, 0); lo < len(srcs); lo, hi = farRun(t, ni, hi) {
		w.M2LBatchTable4(l, srcs[lo:hi], m.Cls.Row(ni)[lo:hi], m.Tab)
	}
}

// mustCover panics unless the table was prepared for t's current lists:
// translating through a missing or stale table would read another list
// epoch's classes. Prepare runs before every step's graph (Solve, the dmem
// runtime); a driver of its own must call it first.
func (m *SharedM2L) mustCover(t *octree.Tree) {
	if m.Tab == nil || m.epoch != t.ListEpoch() {
		panic("core: M2L before SharedM2L.Prepare covered the tree's current lists")
	}
}

// Stats returns the class schedule stats (zero-valued before the first
// Prepare; a dry run never prepares): classes, pairs, and of the last
// classification the pairs carried from the previous epoch and the
// classes it created.
func (m *SharedM2L) Stats() (classes int, pairs, rowsReused, classesNew int64) {
	if m.Cls == nil {
		return 0, 0, 0, 0
	}
	return m.Cls.Classes(), m.Cls.Pairs, m.Cls.RowsReused, m.Cls.ClassesNew
}

// PrepareM2L readies the shared table for a step over the current lists.
func (s *Solver) PrepareM2L() {
	s.m2l.Prepare(s.Tree, s.Cfg.P, s.Cfg.Pool, s.Cfg.Rec)
}

// M2LTableStats returns the current class schedule stats (see
// SharedM2L.Stats).
func (s *Solver) M2LTableStats() (classes int, pairs, rowsReused, classesNew int64) {
	return s.m2l.Stats()
}
