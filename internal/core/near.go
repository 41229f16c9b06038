package core

import (
	"slices"

	"afmm/internal/kernels"
	"afmm/internal/octree"
)

// NearKernel is a field's near kernel as the mutual near walk (Near)
// drives it over body ranges of the particle arrays and over ghost copies:
// S is its one-way source span, P its mutual pair and R one body's
// reaction slot. Every
// field evaluates each unordered near pair once: gravity's reaction is
// the potential and acceleration, the Stokeslet's the velocity.
type NearKernel[S, P, R any] interface {
	// Span returns the local bodies [lo, hi) as a one-way source span,
	// GhostSpan the bodies of ghost copy g.
	Span(lo, hi int32) S
	GhostSpan(g *GhostLeaf) S
	// Pair returns the bodies [lo, hi) as a mutual partner whose
	// reactions are added to react.
	Pair(lo, hi int32, react []R) P
	// P2PRow and P2PPair run the kernel's entries of those names on the
	// targets [lo, hi); P2PReact runs the reaction half alone on the
	// targets ghost copy g holds.
	P2PRow(lo, hi int32, spans []S)
	P2PPair(lo, hi int32, pairs []P, lanes *kernels.PairLanes)
	P2PReact(g *GhostLeaf, pairs []P, lanes *kernels.PairLanes)
	// Fold adds react, one slot per body, to the bodies [lo, hi).
	Fold(lo, hi int32, react []R)
}

// RowSpans is the entry buffer a near-field row fills before one kernel
// call; a longer run flushes it through further calls. Rows of Plummer
// trees at S = 64 and 256 hold 56–1,046 entries (median 107–163), and
// flushing every 16 to 1,024 entries timed the same.
const RowSpans = 64

// Near is a field's mutual near field: per tree chunk, its reaction
// buffer (octree.NearSchedule.ReactLen slots), the pair kernels' scratch
// and the run of entries waiting for a kernel call, all kept across steps
// so that a chunk allocates nothing once they have grown.
type Near[S, P, R any] struct {
	chunks [octree.NearChunks]nearRun[S, P, R]
}

// nearRun is one chunk's state. It batches a row's consecutive entries of
// one kind — one-way spans, mutual pairs, or reaction halves of a remote
// row — into one kernel call per run and per RowSpans entries: splitting
// a row between calls is exact, the accumulators round-trip memory
// unchanged.
type nearRun[S, P, R any] struct {
	react        []R
	lanes        kernels.PairLanes
	k            NearKernel[S, P, R]
	lo, hi       int32      // the targets of an owned row
	remote       bool       // a remote row: reactions only,
	g            *GhostLeaf // on the targets of its ghost copy
	one          [RowSpans]S
	two          [RowSpans]P
	nOne, nPairs int
}

// Run executes chunk c's rows in order with kernel k for the share that
// owns the bodies [lo, hi) of t. A row the share owns takes its upper
// half (octree.NearSchedule.Upper): its own leaf and a remote partner
// one-way through P2PRow, a local partner mutually through P2PPair, the
// reaction into the chunk's buffer. A remote row gives its local partners
// their reactions from the row's ghost copy through P2PReact, the pair
// body's reaction half alone, so a reaction's bits do not depend on who
// owns the row. Remote bodies are read from their ghost copies only: a
// share that lacks one fails on it instead of reading the particle
// arrays (ghosts is nil when the share owns every body).
func (n *Near[S, P, R]) Run(k NearKernel[S, P, R], t *octree.Tree, sch *octree.NearSchedule, c int, lo, hi int32, ghosts []GhostLeaf) {
	q := &n.chunks[c]
	if m := int(sch.ReactLen[c]); cap(q.react) < m {
		// Room for the slots to grow as bodies move between leaves.
		q.react = make([]R, m, m+m/4)
	}
	q.react = q.react[:sch.ReactLen[c]]
	q.k = k
	own := func(start int32) bool { return lo <= start && start < hi }
	// Zero the slots of the share's leaves, the only ones it writes.
	for r, li := range sch.Leaves {
		if nd := &t.Nodes[li]; own(nd.Start) {
			chunks, offs := sch.Fold(r)
			if i := slices.Index(chunks, uint8(c)); i >= 0 {
				clear(q.react[offs[i]:][:nd.Count()])
			}
		}
	}
	rlo, rhi := sch.Chunk(c)
	for r := rlo; r < rhi; r++ {
		a := sch.Leaves[r]
		tn := &t.Nodes[a]
		q.lo, q.hi = tn.Start, tn.End
		q.remote = !own(tn.Start)
		if !q.remote {
			for e := sch.Upper[r]; e < sch.RowPtr[r+1]; e++ {
				slo, shi := sch.SrcStart[e], sch.SrcEnd[e]
				if !own(slo) {
					q.oneWay(k.GhostSpan(Ghost(ghosts, sch.Srcs[e])))
				} else if off := sch.Slot(e, c); e == sch.Upper[r] || off < 0 {
					q.oneWay(k.Span(slo, shi))
				} else {
					q.pair(k.Pair(slo, shi, q.react[off:][:shi-slo]))
				}
			}
			q.flush()
			continue
		}
		q.g = Ghost(ghosts, a)
		for e := sch.Upper[r] + 1; e < sch.RowPtr[r+1]; e++ {
			slo, shi := sch.SrcStart[e], sch.SrcEnd[e]
			if !own(slo) {
				continue
			}
			if off := sch.Slot(e, c); off >= 0 {
				q.pair(k.Pair(slo, shi, q.react[off:][:shi-slo]))
			}
		}
		q.flush()
	}
	q.k, q.g = nil, nil
}

func (q *nearRun[S, P, R]) oneWay(s S) {
	if q.nPairs > 0 || q.nOne == RowSpans {
		q.flush()
	}
	q.one[q.nOne] = s
	q.nOne++
}

func (q *nearRun[S, P, R]) pair(p P) {
	if q.nOne > 0 || q.nPairs == RowSpans {
		q.flush()
	}
	q.two[q.nPairs] = p
	q.nPairs++
}

func (q *nearRun[S, P, R]) flush() {
	if q.nOne > 0 {
		q.k.P2PRow(q.lo, q.hi, q.one[:q.nOne])
		q.nOne = 0
	}
	if q.nPairs > 0 && q.remote {
		q.k.P2PReact(q.g, q.two[:q.nPairs], &q.lanes)
	} else if q.nPairs > 0 {
		q.k.P2PPair(q.lo, q.hi, q.two[:q.nPairs], &q.lanes)
	}
	q.nPairs = 0
}

// Fold adds leaf ni's reaction slots to its bodies through k in ascending
// chunk order, one addition per slot and component: after every chunk
// writing them ran, and before L2P.
func (n *Near[S, P, R]) Fold(k NearKernel[S, P, R], t *octree.Tree, sch *octree.NearSchedule, ni int32) {
	r := sch.RowOf(ni)
	if r < 0 {
		return
	}
	nd := &t.Nodes[ni]
	chunks, offs := sch.Fold(r)
	for i, c := range chunks {
		k.Fold(nd.Start, nd.End, n.chunks[c].react[offs[i]:][:nd.Count()])
	}
}
