package octree

import (
	"math"
	"math/bits"
	"sync/atomic"

	"afmm/internal/geom"
)

// M2LClassSchedule annotates every V-list (M2L) pair with its translation
// class: pairs are merged only when their exact float64 translation
// vectors src.Center - target.Center compare equal, so a class-table
// translation is bit-for-bit equal to the per-pair path. The expensive
// per-direction setup (Wigner stack, radial powers, phases) can then be
// precomputed once per class and shared read-only across all workers.
//
// Row ni of the CSR mirrors Tree.Nodes[ni].V element-for-element: the
// class of pair (ni, V[k]) is Class[RowPtr[ni]+k], and Dirs[class] holds
// the exact translation vector of every pair in the class. The schedule is
// cached on the tree and keyed on ListEpoch, like the near-field schedule;
// across a list repair it keeps its class numbering (see buildM2LClasses),
// so classes are only ever appended within one Gen.
type M2LClassSchedule struct {
	RowPtr []int32
	Class  []int32
	// Dirs holds the exact representative direction of each class.
	Dirs []geom.Vec3
	// PairsPerClass counts the V-list pairs in each class (parallel to
	// Dirs) — the popularity weight the table build uses to elect which
	// rotation setups are worth precomputing. A class no pair uses any
	// more (after a repair) reads 0 until the next renumbering.
	PairsPerClass []int64

	// Pairs counts V-list pairs; RowsReused is how many of them the last
	// build carried verbatim from the previous epoch's rows, ClassesNew how
	// many classes it created. Without a repair in between both say "full":
	// RowsReused 0, ClassesNew = Classes().
	Pairs      int64
	RowsReused int64
	ClassesNew int64

	// Gen identifies the class numbering: it changes whenever the build
	// restarts it (a full list build, or compaction of stale classes), and
	// stays put while repairs only append classes, so a consumer that
	// derived per-class data for Dirs[:k] under the same Gen may keep it.
	// Gens are unique across trees.
	Gen uint64
}

// classGens hands out M2LClassSchedule.Gen values.
var classGens atomic.Uint64

// Row returns the per-pair classes of node ni's V list (parallel to it).
func (s *M2LClassSchedule) Row(ni int32) []int32 {
	return s.Class[s.RowPtr[ni]:s.RowPtr[ni+1]]
}

// Classes returns the number of translation classes, stale ones included.
func (s *M2LClassSchedule) Classes() int { return len(s.Dirs) }

// M2LClasses returns the cached translation-class schedule for the current
// lists. BuildLists must have run. The returned schedule is owned by the
// tree and valid until the next list topology change.
func (t *Tree) M2LClasses() *M2LClassSchedule {
	if t.farEpoch == t.listEpoch && t.farEpoch != 0 {
		return &t.farSched
	}
	s := &t.farSched
	// Compaction: once stale classes outnumber live ones, restart the
	// numbering so the class table (and everything sized by it) stays
	// bounded by twice the live classes.
	if stale := t.buildM2LClasses(t.farFull || s.Gen == 0); 2*stale > len(s.Dirs) {
		t.buildM2LClasses(true)
	}
	return s
}

// touchClassRows records nodes whose V list a repair changed; the next
// classification re-derives their rows and carries every other row.
func (t *Tree) touchClassRows(nodes []int32) {
	if n := len(t.Nodes); len(t.farTouched) < n {
		t.farTouched = append(t.farTouched, make([]bool, n-len(t.farTouched))...)
	}
	for _, ni := range nodes {
		t.farTouched[ni] = true
	}
}

// buildM2LClasses classifies the V lists and returns the number of stale
// classes (no pair left). It is one pass over the nodes: a node the
// previous schedule covered and no repair touched since (the touched set
// accumulates until this consumes it) copies its previous row verbatim —
// centers never change within a tree's lifetime, so neither does the class
// of an untouched pair — and every other row classifies each pair through
// the exact-vector hash of classOf. all restarts the numbering (a new Gen,
// every row touched); it is the full build, not a second code path.
func (t *Tree) buildM2LClasses(all bool) (stale int) {
	s := &t.farSched
	prevPtr, prevClass := s.RowPtr, s.Class
	carry := len(prevPtr) - 1 // nodes the previous rows cover
	if all {
		s.Gen = classGens.Add(1)
		s.Dirs, s.PairsPerClass = s.Dirs[:0], s.PairsPerClass[:0]
		carry = 0
		var pairs int
		for ni := range t.Nodes {
			pairs += len(t.Nodes[ni].V)
		}
		t.sizeClassSlots(pairs)
	}
	from := len(s.Dirs)
	rowPtr := append(t.farRowPtr[:0], 0)
	class := t.farClass[:0]
	s.RowsReused = 0
	for ni := range t.Nodes {
		n := &t.Nodes[ni]
		if ni < carry {
			old := prevClass[prevPtr[ni]:prevPtr[ni+1]]
			if ni >= len(t.farTouched) || !t.farTouched[ni] {
				class = append(class, old...)
				s.RowsReused += int64(len(old))
				rowPtr = append(rowPtr, int32(len(class)))
				continue
			}
			for _, c := range old {
				s.PairsPerClass[c]--
			}
		}
		for _, vi := range n.V {
			c := t.classOf(t.Nodes[vi].Box.Center.Sub(n.Box.Center))
			class = append(class, c)
			s.PairsPerClass[c]++
		}
		rowPtr = append(rowPtr, int32(len(class)))
	}
	// The previous rows become the next build's scratch.
	t.farRowPtr, t.farClass = prevPtr, prevClass
	s.RowPtr, s.Class = rowPtr, class
	s.Pairs = int64(len(class))
	s.ClassesNew = int64(len(s.Dirs) - from)
	clear(t.farTouched)
	t.farFull = false
	t.farEpoch = t.listEpoch
	for _, c := range s.PairsPerClass {
		if c == 0 {
			stale++
		}
	}
	return stale
}

// sizeClassSlots sizes the open-addressing class table once per full
// build: one slot per pair or more, which holds a load of at most 1/2
// while there are fewer classes than half the pairs (0.37 on a Plummer
// tree), so repairs, which append few classes, do not grow it.
func (t *Tree) sizeClassSlots(pairs int) {
	n := max(64, 1<<bits.Len(uint(pairs)))
	if cap(t.farSlots) < n {
		t.farSlots = make([]int32, n)
	} else {
		t.farSlots = t.farSlots[:n]
		clear(t.farSlots)
	}
	t.farShift = uint(64 - bits.TrailingZeros(uint(n)))
}

// classOf returns the class of exact direction d, creating it when new.
// farSlots holds class+1 (0 = empty) under linear probing; the probe
// compares with ==, so +0 and -0 components (equal, and hashed alike)
// share a class, as a map keyed on the vector would.
func (t *Tree) classOf(d geom.Vec3) int32 {
	s := &t.farSched
	mask := uint64(len(t.farSlots) - 1)
	for i := dirHash(d) >> t.farShift; ; i = (i + 1) & mask {
		c := t.farSlots[i] - 1
		if c < 0 {
			c = int32(len(s.Dirs))
			s.Dirs = append(s.Dirs, d)
			s.PairsPerClass = append(s.PairsPerClass, 0)
			t.farSlots[i] = c + 1
			if 2*len(s.Dirs) > len(t.farSlots) {
				t.growClassSlots()
			}
			return c
		}
		if s.Dirs[c] == d {
			return c
		}
	}
}

// growClassSlots doubles the class table and re-inserts every class, when
// the classes reach half the slots (trees whose pairs repeat few
// directions, or long runs of repairs).
func (t *Tree) growClassSlots() {
	n := 2 * len(t.farSlots)
	t.farSlots = make([]int32, n)
	t.farShift--
	mask := uint64(n - 1)
	for c, d := range t.farSched.Dirs {
		i := dirHash(d) >> t.farShift
		for t.farSlots[i] != 0 {
			i = (i + 1) & mask
		}
		t.farSlots[i] = int32(c) + 1
	}
}

// dirHash mixes the exact bits of d's components (a zero of either sign
// hashes as +0); callers take the top bits.
func dirHash(d geom.Vec3) uint64 {
	const k = 0x9E3779B97F4A7C15
	var h uint64
	for _, x := range [3]float64{d.X, d.Y, d.Z} {
		b := math.Float64bits(x)
		if x == 0 {
			b = 0
		}
		h = (h ^ b) * k
		h ^= h >> 32
	}
	return h * k
}
