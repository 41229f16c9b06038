package octree

import (
	"slices"
	"sort"
)

// NearChunks is C, the number of tree-fixed chunks the mutual near field
// runs in: contiguous row ranges of about equal mutual work, each with a
// reaction buffer kept across steps. Eight keeps a 2-worker pool busy
// through the near phase while every body of grav-near-s256 is touched by
// 5.6 chunk buffers on average (3.6 MB there), against 9.4 (6.0 MB) at 16.
const NearChunks = 8

// NearSchedule is the near-field work description in CSR form: row i is
// visible leaf Leaves[i] (DFS order, matching WalkVisible), its direct-sum
// sources are Srcs[RowPtr[i]:RowPtr[i+1]] in ascending node order — the
// leaf's U list merged with the entries of its V list that Tree.Direct
// selects for direct summation — Weights[i] = n_t * Σ n_s is its
// interaction count, and Prefix is the running sum of Weights
// (Prefix[len(Leaves)] is the total near-field work). The schedule is the
// one near-field description: the CPU near-field chunking, the virtual-GPU
// partitioners and device walk, the virtual-CPU task graph and the dmem
// exchange plan all read its rows, never the node lists.
// SrcStart/SrcEnd are parallel to Srcs and hold each source leaf's body
// range in the particle arrays, so near-field consumers slice source
// positions/masses directly without re-indirecting through Tree.Nodes per
// target. Everything below Leaves is occupancy-derived (a Refill moves
// body ranges and may move pairs across the Direct threshold) and is
// refilled into reserved buffers when the occupancy changed.
//
// Two readings of a row coexist. What is executed is the whole row:
// Weights, Prefix and Total count it, the host chunking balances by it and
// every executor walks it. What the virtual machine is charged is the
// paper's near field, the U-list entries only — the modeled machine keeps
// the paper's operator assignment, in which every accepted pair is a
// translation. That second reading has exactly one door: Priced(r) =
// n_t * Σ_{s ∈ U} n_s (the paper's Interactions(t)), PricedTotal, and
// PricedRow for the one consumer that prices per source. The flags behind
// it are not exported, so a consumer cannot filter rows by hand.
type NearSchedule struct {
	Leaves   []int32
	RowPtr   []int32
	Srcs     []int32
	SrcStart []int32
	SrcEnd   []int32
	Weights  []int64
	Prefix   []int64

	fromV  []bool  // parallel to Srcs: the entry came from V (Tree.Direct)
	priced []int64 // per row: Weights minus the entries from V

	// The mutual reading (see Chunk).
	Upper     []int32
	Chunks    [NearChunks + 1]int32
	ReactLen  [NearChunks]int32
	foldPtr   []int32
	foldChunk []uint8
	foldOff   []int32
	mutual    []int64 // prefix of the rows' mutual work
	rowOf     []int32 // per node: its row, -1 for a node without one
	// Unpaired counts the rows whose lower entries (B, A) and the upper
	// entries (A, B) naming them differ in number: 0 on symmetric rows.
	Unpaired int

	// DirectPairs counts the row entries that came from V lists (accepted
	// pairs summed directly instead of translated) and DirectInteractions
	// their body-body interactions; both are included in the rows and in
	// Weights/Prefix/Total.
	DirectPairs        int64
	DirectInteractions int64
}

// Rows returns the number of target leaves.
func (s *NearSchedule) Rows() int { return len(s.Leaves) }

// Row returns the source leaves of row i.
func (s *NearSchedule) Row(i int) []int32 { return s.Srcs[s.RowPtr[i]:s.RowPtr[i+1]] }

// Total returns the total body-body interaction count of the schedule.
func (s *NearSchedule) Total() int64 {
	if len(s.Prefix) == 0 {
		return 0
	}
	return s.Prefix[len(s.Prefix)-1]
}

// Priced returns the interactions row r is charged for on the modeled
// machine: its U-list entries only, the paper's Interactions(t).
func (s *NearSchedule) Priced(r int) int64 { return s.priced[r] }

// The mutual reading, for a kernel that evaluates each unordered near pair
// once (every field). Row r's upper half is its entries from Upper[r] on: the
// row's own leaf, then the partners B above it in node order. Summed
// mutually, an entry (A, B) past the self entry gives A the row's terms
// and B the reaction; (B, A), B's lower entry, is not evaluated again.
// The rows are cut into NearChunks chunks (Chunk); chunk c's reactions go
// to a buffer of ReactLen[c] bodies, one slot per partner leaf the chunk
// touches, laid out in first-touch order (Slot); row r's slots, ascending
// by chunk, are its fold list (Fold).
// Everything here is a function of the rows alone, so a body's summation
// order — its own upper half in row order, then its reaction slots in
// chunk order — is fixed by the tree, never by a pool or a node count.

// Chunk returns the row range [lo, hi) of chunk c.
func (s *NearSchedule) Chunk(c int) (lo, hi int) { return int(s.Chunks[c]), int(s.Chunks[c+1]) }

// ChunkWork returns chunk c's mutual work: n_A * Σ n_B over the upper
// halves of its rows.
func (s *NearSchedule) ChunkWork(c int) int64 {
	lo, hi := s.Chunk(c)
	return s.mutual[hi] - s.mutual[lo]
}

// RowOf returns the row of leaf ni, or -1 when ni has none.
func (s *NearSchedule) RowOf(ni int32) int { return int(s.rowOf[ni]) }

// Fold returns the reaction slots of row r: parallel chunk and offset
// lists, ascending by chunk.
func (s *NearSchedule) Fold(r int) (chunks []uint8, offs []int32) {
	lo, hi := s.foldPtr[r], s.foldPtr[r+1]
	return s.foldChunk[lo:hi], s.foldOff[lo:hi]
}

// Slot returns the offset, in chunk c's reaction buffer, of the slot of
// entry k's source leaf, or -1 when it has none: it is not a row, and
// the entry is summed one-way.
func (s *NearSchedule) Slot(k int32, c int) int32 {
	r := s.rowOf[s.Srcs[k]]
	if r < 0 {
		return -1
	}
	for i := s.foldPtr[r]; i < s.foldPtr[r+1]; i++ {
		if int(s.foldChunk[i]) == c {
			return s.foldOff[i]
		}
	}
	return -1
}

// PricedTotal returns the near field of the paper's cost model: the
// body-body interaction count over the U-list entries of all rows.
func (s *NearSchedule) PricedTotal() int64 { return s.Total() - s.DirectInteractions }

// PricedRow calls fn for every priced (U-list) entry of row r with the
// source leaf and its body count.
func (s *NearSchedule) PricedRow(r int, fn func(src int32, bodies int64)) {
	for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
		if !s.fromV[j] {
			fn(s.Srcs[j], int64(s.SrcEnd[j]-s.SrcStart[j]))
		}
	}
}

// SetDirectK sets the break-even threshold of Direct: an accepted
// leaf–leaf pair with n_t·n_s <= k is summed directly instead of
// translated. The solvers set it once, from the expansion order, right
// after Build; a tree that was never told sums no accepted pair directly.
func (t *Tree) SetDirectK(k int64) {
	t.directK = k
	t.nearRowsOK = false
}

// Direct reports whether the accepted pair (a, b) — b ∈ V(a) — is summed
// directly (P2P) instead of translated (M2L): both cells are visible
// leaves accepted in both directions (directCandidate, the topological
// half) and n_a·n_b is at most the break-even threshold (the occupancy
// half). It is a function of the tree's current state, never stored in the
// lists, so U/V, their repair and the list epoch stay purely topological;
// it is symmetric in (a, b). The near-field schedule evaluates the two
// halves — the topological one per list epoch, the occupancy one per
// occupancy change — and every executor reads the result: the schedule's
// rows, or DirectMask for the entries of V to skip. Direct itself is the
// definition ValidateLists and the dag oracle hold those against.
func (t *Tree) Direct(a, b int32) bool {
	return t.withinDirectK(a, b) && t.directCandidate(a, b)
}

// directCandidate is the topological half of Direct: both cells visible
// leaves, each in the other's V list. The dual traversal records
// mixed-granularity pairs in one direction only (a leaf can hold a leaf in
// V whose own V holds the first one's ancestor instead), and summing such a
// one-way pair directly would leave a pair force without its reaction in
// the near field.
func (t *Tree) directCandidate(a, b int32) bool {
	na, nb := &t.Nodes[a], &t.Nodes[b]
	if !na.IsVisibleLeaf() || !nb.IsVisibleLeaf() {
		return false
	}
	_, mutual := slices.BinarySearch(nb.V, a)
	return mutual
}

// withinDirectK is the occupancy half of Direct.
func (t *Tree) withinDirectK(a, b int32) bool {
	return int64(t.Nodes[a].Count())*int64(t.Nodes[b].Count()) <= t.directK
}

// DirectMask returns, parallel to node ni's V list, which entries the
// near-field schedule sums directly under the current occupancy — the
// entries every far-field consumer skips. The mask belongs to the schedule
// (see NearField) and is only current once that was resolved after the
// last list or occupancy change, which the owning goroutine does before
// any worker reads it (top of Solve, entry of the down sweeps, dag.Build,
// Runtime.Step); reading an unresolved mask would count pairs twice or not
// at all, so it panics instead. Read-only.
func (t *Tree) DirectMask(ni int32) []bool {
	if !t.nearRowsOK || t.nearEpoch != t.listEpoch {
		panic("octree: DirectMask read before NearField resolved the schedule")
	}
	return t.directMask[t.maskOff[ni]:][:len(t.Nodes[ni].V)]
}

// FarPairs returns the number of entries of node ni's V list that are
// translated (len(V) minus the entries summed directly), from the count
// kept with the near-field schedule. It resolves the schedule when stale,
// so call it from the goroutine that owns the tree.
func (t *Tree) FarPairs(ni int32) int {
	t.NearField()
	return len(t.Nodes[ni].V) - int(t.nDirect[ni])
}

// NearField returns the cached near-field schedule for the current lists
// and occupancy. BuildLists must have run. The leaf index, the buffer
// reservation and the candidate flags (directCandidate per leaf V entry)
// follow the list topology (ListEpoch); the rows themselves, the direct
// masks and the per-node direct counts are refilled whenever the
// occupancy changed (Refill, SetDirectK), because Direct reads occupancy —
// without allocating: a row never exceeds U plus the candidates of V,
// which is topological. The returned schedule is owned by the tree and
// valid until the next list or occupancy change.
func (t *Tree) NearField() *NearSchedule {
	if t.nearEpoch != t.listEpoch || t.nearEpoch == 0 {
		t.reserveNearSchedule()
		t.nearEpoch = t.listEpoch
		t.nearRowsOK = false
	}
	if !t.nearRowsOK {
		t.fillNearRows()
	}
	return &t.nearSched
}

// reserveNearSchedule rebuilds the topological part: the leaf index, every
// buffer sized for the largest rows the current lists can produce, and
// the candidate flag of every leaf V entry.
func (t *Tree) reserveNearSchedule() {
	s := &t.nearSched
	// Copy the leaf index rather than aliasing the VisibleLeaves cache:
	// the cache's backing array is recycled on invalidation, while the
	// schedule must stay coherent until the next topology change.
	s.Leaves = append(s.Leaves[:0], t.VisibleLeaves()...)
	t.maskOff = slices.Grow(t.maskOff[:0], len(t.Nodes))[:len(t.Nodes)]
	t.nDirect = slices.Grow(t.nDirect[:0], len(t.Nodes))[:len(t.Nodes)]
	clear(t.nDirect)
	// Flags mirror every V list; only leaf rows ever set one.
	vs := 0
	for i := range t.Nodes {
		t.maskOff[i] = int32(vs)
		vs += len(t.Nodes[i].V)
	}
	t.directCand = slices.Grow(t.directCand[:0], vs)[:vs]
	t.directMask = slices.Grow(t.directMask[:0], vs)[:vs]
	clear(t.directMask)
	// A row holds U and at most the candidates of V.
	t.flagCandidates()
	bound := 0
	for _, ni := range s.Leaves {
		bound += len(t.Nodes[ni].U)
		for _, c := range t.directCand[t.maskOff[ni]:][:len(t.Nodes[ni].V)] {
			if c {
				bound++
			}
		}
	}
	s.Srcs = slices.Grow(s.Srcs[:0], bound)
	s.SrcStart = slices.Grow(s.SrcStart[:0], bound)
	s.SrcEnd = slices.Grow(s.SrcEnd[:0], bound)
	s.fromV = slices.Grow(s.fromV[:0], bound)
	s.RowPtr = slices.Grow(s.RowPtr[:0], len(s.Leaves)+1)
	s.Weights = slices.Grow(s.Weights[:0], len(s.Leaves))
	s.priced = slices.Grow(s.priced[:0], len(s.Leaves))
	s.Prefix = slices.Grow(s.Prefix[:0], len(s.Leaves)+1)
	s.rowOf = grown(s.rowOf, len(t.Nodes))
	t.slotStamp = grown(t.slotStamp, len(t.Nodes))
	t.slotOff = grown(t.slotOff, len(t.Nodes))
	for i := range s.rowOf {
		s.rowOf[i] = -1
	}
	for r, ni := range s.Leaves {
		s.rowOf[ni] = int32(r)
	}
}

// grown returns buf resized to n. The mutual layout's arrays are sized
// here rather than reserved per list epoch: a larger one is made with a
// quarter to spare, so the epochs of a run that rebuilds its tree every
// few steps rarely reallocate them, and a refill at unchanged size never
// does.
func grown[E any](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, n, n+n/4)
	}
	return buf[:n]
}

// flagCandidates sets the candidate flag of every leaf V entry to
// directCandidate without a search: one ascending pass over the visible
// leaves b meets, for each visible leaf a, the b with a in V(b) in
// ascending order, so a cursor per a walks a's ascending V list once and
// finds each such b in it or finds it absent — the merge of V(a) with the
// reversed leaf V lists, which are never stored.
func (t *Tree) flagCandidates() {
	clear(t.directCand)
	cur := slices.Grow(t.candCur[:0], len(t.Nodes))[:len(t.Nodes)]
	clear(cur)
	for b := range t.Nodes {
		if !t.Nodes[b].IsVisibleLeaf() {
			continue
		}
		for _, a := range t.Nodes[b].V {
			if !t.Nodes[a].IsVisibleLeaf() {
				continue
			}
			va, k := t.Nodes[a].V, cur[a]
			for int(k) < len(va) && va[k] < int32(b) {
				k++
			}
			if int(k) < len(va) && va[k] == int32(b) {
				t.directCand[int(t.maskOff[a])+int(k)] = true
			}
			cur[a] = k
		}
	}
	t.candCur = cur
}

// fillNearRows recomputes the occupancy-derived part — row sources, body
// spans, weights, direct masks and counts — from the lists, the candidate
// flags and the current occupancy.
func (t *Tree) fillNearRows() {
	s := &t.nearSched
	s.RowPtr = append(s.RowPtr[:0], 0)
	s.Srcs, s.SrcStart, s.SrcEnd, s.fromV = s.Srcs[:0], s.SrcStart[:0], s.SrcEnd[:0], s.fromV[:0]
	s.Weights, s.priced = s.Weights[:0], s.priced[:0]
	s.Prefix = append(s.Prefix[:0], 0)
	s.DirectPairs, s.DirectInteractions = 0, 0
	add := func(si int32, direct bool) int64 {
		sn := &t.Nodes[si]
		s.Srcs = append(s.Srcs, si)
		s.SrcStart = append(s.SrcStart, sn.Start)
		s.SrcEnd = append(s.SrcEnd, sn.End)
		s.fromV = append(s.fromV, direct)
		return int64(sn.Count())
	}
	run := int64(0)
	for _, ni := range s.Leaves {
		n := &t.Nodes[ni]
		cand := t.directCand[t.maskOff[ni]:][:len(n.V)]
		mask := t.directMask[t.maskOff[ni]:][:len(n.V)]
		var srcs, direct int64
		var nd int32
		// Merge U with the direct entries of V, both ascending.
		u := n.U
		for k, vi := range n.V {
			mask[k] = cand[k] && t.withinDirectK(ni, vi)
			if !mask[k] {
				continue
			}
			for len(u) > 0 && u[0] < vi {
				srcs += add(u[0], false)
				u = u[1:]
			}
			direct += add(vi, true)
			nd++
		}
		for _, ui := range u {
			srcs += add(ui, false)
		}
		t.nDirect[ni] = nd
		s.RowPtr = append(s.RowPtr, int32(len(s.Srcs)))
		s.DirectPairs += int64(nd)
		s.DirectInteractions += int64(n.Count()) * direct
		w := int64(n.Count()) * (srcs + direct)
		s.Weights = append(s.Weights, w)
		s.priced = append(s.priced, int64(n.Count())*srcs)
		run += w
		s.Prefix = append(s.Prefix, run)
	}
	t.fillMutual()
	t.nearRowsOK = true
}

// fillMutual lays out the mutual reading of the rows just filled: the
// upper halves and their work, the chunk bounds, every chunk's reaction
// slots in first-touch order and the rows' fold lists. It checks, by
// count, that every row entry (A, B) has its (B, A), which the mutual sum
// relies on, and counts the rows that fail in Unpaired. A source that is
// not a row of its own gets no slot and is summed one-way.
func (t *Tree) fillMutual() {
	s := &t.nearSched
	rows := len(s.Leaves)
	s.Upper = grown(s.Upper, rows)
	s.mutual = grown(s.mutual, rows+1)
	t.nearCnt = grown(t.nearCnt, rows)
	s.mutual[0] = 0
	run := int64(0)
	for r, ni := range s.Leaves {
		k := s.RowPtr[r]
		for k < s.RowPtr[r+1] && s.Srcs[k] < ni {
			k++
		}
		s.Upper[r] = k
		due := int32(0) // lower entries with a row, each a reaction due
		for _, a := range s.Srcs[s.RowPtr[r]:k] {
			if s.rowOf[a] >= 0 {
				due++
			}
		}
		t.nearCnt[r] = due
		var srcs int64
		for j := k; j < s.RowPtr[r+1]; j++ {
			srcs += int64(s.SrcEnd[j] - s.SrcStart[j])
		}
		run += int64(t.Nodes[ni].Count()) * srcs
		s.mutual[r+1] = run
	}
	// Chunk c starts at the row boundary nearest to c/C of the work.
	for c := 1; c < NearChunks; c++ {
		goal := run * int64(c)
		r := sort.Search(rows+1, func(r int) bool { return s.mutual[r]*NearChunks >= goal })
		if r > 0 && goal-s.mutual[r-1]*NearChunks < s.mutual[r]*NearChunks-goal {
			r--
		}
		s.Chunks[c] = max(s.Chunks[c-1], int32(r))
	}
	s.Chunks[NearChunks] = int32(rows)

	// Pass 1 counts each row's slots and sizes the buffers; pass 2 lays
	// the slots out again, in the same first-touch order, into the fold
	// lists. Stamp c (pass 1) or C+c (pass 2) marks a leaf slotted in c.
	for i := range t.slotStamp {
		t.slotStamp[i] = -1
	}
	s.foldPtr = grown(s.foldPtr, rows+1)
	clear(s.foldPtr)
	s.Unpaired = 0
	for pass := range 2 {
		for c := range NearChunks {
			stamp, off := int32(pass*NearChunks+c), int32(0)
			lo, hi := s.Chunk(c)
			for r := lo; r < hi; r++ {
				for k := s.Upper[r] + 1; k < s.RowPtr[r+1]; k++ {
					b := s.Srcs[k]
					rb := s.rowOf[b]
					if rb < 0 || t.slotStamp[b] == stamp {
						continue // no row to fold into (one-way), or slotted
					}
					t.slotStamp[b] = stamp
					if pass == 0 {
						s.foldPtr[rb+1]++
					} else {
						at := &t.nearCnt[rb]
						s.foldChunk[*at], s.foldOff[*at] = uint8(c), off
						*at++
					}
					off += s.SrcEnd[k] - s.SrcStart[k]
				}
			}
			s.ReactLen[c] = off
		}
		if pass == 1 {
			break
		}
		// Every upper entry (A, B) with a row pays one of B's lower
		// entries; then the fold cursors replace the counts.
		for r := range rows {
			for k := s.Upper[r] + 1; k < s.RowPtr[r+1]; k++ {
				if rb := s.rowOf[s.Srcs[k]]; rb >= 0 {
					t.nearCnt[rb]--
				}
			}
		}
		for r := range rows {
			if t.nearCnt[r] != 0 {
				s.Unpaired++
			}
			s.foldPtr[r+1] += s.foldPtr[r]
			t.nearCnt[r] = s.foldPtr[r]
		}
		s.foldChunk = grown(s.foldChunk, int(s.foldPtr[rows]))
		s.foldOff = grown(s.foldOff, int(s.foldPtr[rows]))
	}
}
