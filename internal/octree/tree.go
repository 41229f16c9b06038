// Package octree implements the adaptive spatial decomposition at the heart
// of the AFMM: a variable-depth octree over the bodies, built by recursive
// parallel partition, with the paper's tree-modification primitives —
// Collapse (hide a subdivided node's children so it acts as a leaf),
// PushDown (subdivide a leaf, reclaiming hidden children when available),
// Enforce_S (restore the global leaf-capacity invariant), and Refill
// (re-bin moved bodies into the existing structure between rebuilds).
package octree

import (
	"fmt"
	"math"
	"sync"

	"afmm/internal/geom"
	"afmm/internal/particle"
	"afmm/internal/sched"
)

// NilNode marks an absent child.
const NilNode = int32(-1)

// Mode selects the decomposition rule.
type Mode int

const (
	// Adaptive subdivides any cell holding more than S bodies (the AFMM
	// decomposition of Cheng, Greengard & Rokhlin).
	Adaptive Mode = iota
	// Uniform subdivides every occupied cell down to the fixed depth
	// ceil(log8(N/S)) (the original FMM decomposition); leaves all sit
	// at the same level.
	Uniform
)

// Node is one octree cell. Bodies of the subtree occupy the contiguous
// storage range [Start, End) of the particle system.
type Node struct {
	Box      geom.Box
	Parent   int32
	Children [8]int32
	Level    int32
	Start    int32
	End      int32
	// Leaf is true when the node has no allocated children.
	Leaf bool
	// Collapsed hides allocated children from the FMM view, making the
	// node act as a leaf (the paper's Collapse operation).
	Collapsed bool

	// U and V are the interaction lists produced by BuildLists: U holds
	// the near-field source leaves of a visible leaf (including itself),
	// V the well-separated M2L source nodes.
	U []int32
	V []int32
}

// Count returns the number of bodies in the node's subtree.
func (n *Node) Count() int { return int(n.End - n.Start) }

// IsVisibleLeaf reports whether the node acts as a leaf in the current FMM
// view.
func (n *Node) IsVisibleLeaf() bool { return n.Leaf || n.Collapsed }

// Config controls tree construction.
type Config struct {
	S        int  // leaf capacity target
	MaxDepth int  // subdivision limit (default 24)
	Mode     Mode // Adaptive or Uniform
	// MAC is the multipole acceptance parameter of the dual traversal
	// (default 0.6); smaller is more accurate and pushes more pairs into
	// the near field.
	MAC float64
	// Pool, when non-nil, parallelizes construction and refills.
	Pool *sched.Pool
	// ParallelCutoff is the minimum subtree body count for spawning a
	// construction task (default 2048).
	ParallelCutoff int
	// NoListCache disables the persistent interaction-list cache: every
	// BuildLists call runs the full dual traversal from scratch. Used for
	// A/B measurements and as an escape hatch.
	NoListCache bool
}

func (c *Config) setDefaults() {
	if c.S <= 0 {
		c.S = 64
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 24
	}
	if c.MAC <= 0 || c.MAC >= 1 {
		c.MAC = 0.6
	}
	if c.ParallelCutoff <= 0 {
		c.ParallelCutoff = 2048
	}
}

// Tree is the adaptive decomposition over a particle system. The system's
// bodies are reordered in place so each node's bodies are contiguous.
type Tree struct {
	Sys   *particle.System
	Nodes []Node
	Root  int32
	Cfg   Config

	// UniformDepth is the fixed leaf level when Cfg.Mode == Uniform.
	UniformDepth int

	// scratch buffers reused across rebuilds/refills
	octant []uint8
	permA  []geom.Vec3
	permB  []geom.Vec3
	permC  []float64
	permD  []int
	permE  []geom.Vec3

	// levels caches LevelOrder's grouping of visible nodes by level; any
	// edit that changes the visible node set (structure or occupancy)
	// invalidates it.
	levels   [][]int32
	levelsOK bool

	// leaves caches VisibleLeaves' DFS leaf index under the same
	// invalidation rule as levels.
	leaves   []int32
	leavesOK bool

	// Persistent interaction-list state (see lists.go). Lists survive
	// across steps: Refill only refreshes occupancy, Collapse/PushDown
	// mark local dirty roots for incremental repair, and only Rebuild
	// forces a full dual traversal.
	listsBuilt     bool    // BuildLists has populated U/V at least once
	listsFullDirty bool    // next BuildLists must run from scratch
	dirtyRoots     []int32 // subtree roots needing local list repair
	// listRef is the reverse-reference index: listRef[s] holds every
	// target t with s ∈ U(t) ∪ V(t). Lists are not symmetric (the dual
	// traversal records mixed-granularity V pairs in one direction only),
	// so repair needs this explicit index to find stale references.
	listRef [][]int32
	// listZero snapshots Count()==0 per node at list-build time; Refill
	// compares against it to detect occupancy flips that change the
	// traversal topology (dual prunes empty subtrees).
	listZero []bool
	// listEpoch increments whenever list topology changes (full build or
	// repair); the near-field schedule cache keys on it.
	listEpoch uint64
	// stamp arrays for repair marking (generation-counted, no clearing)
	subMark   []uint32
	ancMark   []uint32
	touchMark []uint32
	markGen   uint32
	listStats ListStats
	lastWork  ListWork

	// near-field CSR schedule cache (see schedule.go). directK is the
	// threshold of Direct. The entries of V(ni) have flags at maskOff[ni]
	// (set for visible leaves only): directCand is topological (kept per
	// list epoch, merged with a cursor per leaf in candCur),
	// directMask and the count nDirect[ni] follow the occupancy the rows
	// were filled at.
	nearSched  NearSchedule
	nearEpoch  uint64 // listEpoch the leaf index was built at (0 = never)
	nearRowsOK bool
	directK    int64
	maskOff    []int32
	directCand []bool
	directMask []bool
	nDirect    []int32
	candCur    []int32
	// Scratch of the mutual layout (fillMutual): per node the chunk stamp
	// and reaction offset of its slot in the chunk being laid out; per row
	// a pair count, then a fold cursor.
	slotStamp []int32
	slotOff   []int32
	nearCnt   []int32

	// M2L translation-class schedule cache (see farclass.go), keyed on
	// listEpoch like the near-field schedule. farTouched marks the nodes
	// whose V list a repair changed since the last classification, farFull
	// that a full list build did (restart the numbering); farSlots is the
	// exact-direction hash (class+1 per slot, indexed by
	// dirHash >> farShift); farRowPtr/farClass are the CSR scratch the next
	// build writes into.
	farSched   M2LClassSchedule
	farEpoch   uint64
	farTouched []bool
	farFull    bool
	farSlots   []int32
	farShift   uint
	farRowPtr  []int32
	farClass   []int32
}

// Build constructs a tree over sys with the given configuration.
func Build(sys *particle.System, cfg Config) *Tree {
	cfg.setDefaults()
	t := &Tree{Sys: sys, Cfg: cfg}
	t.ensureScratch()
	t.Rebuild(cfg.S)
	return t
}

func (t *Tree) ensureScratch() {
	n := t.Sys.Len()
	if len(t.octant) < n {
		t.octant = make([]uint8, n)
		t.permA = make([]geom.Vec3, n)
		t.permB = make([]geom.Vec3, n)
		t.permC = make([]float64, n)
		t.permD = make([]int, n)
		t.permE = make([]geom.Vec3, n)
	}
}

// uniformDepthFor computes the fixed octree depth ceil(log8(N/S)) used by
// the uniform FMM.
func uniformDepthFor(n, s, maxDepth int) int {
	if n <= s || s <= 0 {
		return 0
	}
	d := int(math.Ceil(math.Log(float64(n)/float64(s)) / math.Log(8)))
	if d < 0 {
		d = 0
	}
	if d > maxDepth {
		d = maxDepth
	}
	// The uniform tree size is 8^d; keep it bounded regardless of S.
	for d > 8 {
		d--
	}
	return d
}

// Rebuild discards the current structure and builds a fresh decomposition
// with leaf capacity s. The node arena is reused, implementing the paper's
// reserved node buffer.
func (t *Tree) Rebuild(s int) {
	if s <= 0 {
		s = 1
	}
	t.Cfg.S = s
	t.ensureScratch()
	t.invalidateLevels()
	// A rebuild discards every node, so incremental list repair is off the
	// table: force the next BuildLists to run from scratch.
	t.listsFullDirty = true
	t.listsBuilt = false
	t.dirtyRoots = t.dirtyRoots[:0]
	t.Nodes = t.Nodes[:0]
	box := geom.BoundingCube(t.Sys.Pos)
	t.Root = t.alloc(box, NilNode, 0, 0, int32(t.Sys.Len()))
	if t.Cfg.Mode == Uniform {
		t.UniformDepth = uniformDepthFor(t.Sys.Len(), s, t.Cfg.MaxDepth)
	}
	t.subdivide(t.Root)
}

func (t *Tree) alloc(box geom.Box, parent, level, start, end int32) int32 {
	idx := int32(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{
		Box:      box,
		Parent:   parent,
		Children: [8]int32{NilNode, NilNode, NilNode, NilNode, NilNode, NilNode, NilNode, NilNode},
		Level:    level,
		Start:    start,
		End:      end,
		Leaf:     true,
	})
	return idx
}

// shouldSplit applies the decomposition rule.
func (t *Tree) shouldSplit(n *Node) bool {
	if int(n.Level) >= t.Cfg.MaxDepth || n.Count() <= 1 {
		return n.Count() > 1 && int(n.Level) < t.Cfg.MaxDepth
	}
	switch t.Cfg.Mode {
	case Uniform:
		return int(n.Level) < t.UniformDepth && n.Count() > 0
	default:
		return n.Count() > t.Cfg.S
	}
}

// subdivide recursively partitions node ni. The recursion itself is
// sequential because node allocation appends to the shared arena (pointer
// stability); the octant-classification inside partition is parallel. The
// vcpu model accounts for fully task-parallel construction when replaying
// a build onto the virtual machine.
func (t *Tree) subdivide(ni int32) {
	n := &t.Nodes[ni]
	if !t.shouldSplit(n) {
		return
	}
	children := t.splitNode(ni)
	for _, ci := range children {
		if ci != NilNode && t.Nodes[ci].Count() > 0 {
			t.subdivide(ci)
		}
	}
}

// splitNode partitions ni's body range into 8 octants, allocates (or
// reuses hidden) children, and returns the child indices. The node stops
// being a leaf.
func (t *Tree) splitNode(ni int32) [8]int32 {
	n := &t.Nodes[ni]
	start, end := n.Start, n.End
	box := n.Box
	counts := t.partition(box, start, end)
	reuse := !n.Leaf // hidden children exist (Collapsed pushdown path)
	var children [8]int32
	off := start
	for o := 0; o < 8; o++ {
		var ci int32
		if reuse {
			ci = n.Children[o]
		} else {
			ci = t.alloc(box.Child(o), ni, n.Level+1, 0, 0)
			n = &t.Nodes[ni] // re-resolve: alloc may grow the arena
		}
		c := &t.Nodes[ci]
		c.Start = off
		c.End = off + counts[o]
		c.Leaf = true
		c.Collapsed = false
		off = c.End
		children[o] = ci
		n.Children[o] = ci
	}
	n.Leaf = false
	n.Collapsed = false
	return children
}

// partition reorders the bodies of [start,end) by octant of box and
// returns the per-octant counts: a stable counting sort using scratch
// buffers sliced to [start:end), so partitions of disjoint ranges may run
// concurrently. The octant-classification pass — the bulk of the work —
// is data-parallel and runs on the pool for large ranges.
func (t *Tree) partition(box geom.Box, start, end int32) [8]int32 {
	s := t.Sys
	var counts [8]int32
	n := int(end - start)
	if pool := t.Cfg.Pool; pool != nil && n >= t.Cfg.ParallelCutoff {
		var mu syncCounts
		pool.ParallelRange(n, func(lo, hi int) {
			var local [8]int32
			for i := start + int32(lo); i < start+int32(hi); i++ {
				o := uint8(box.Octant(s.Pos[i]))
				t.octant[i] = o
				local[o]++
			}
			mu.add(&local)
		})
		counts = mu.counts
	} else {
		for i := start; i < end; i++ {
			o := uint8(box.Octant(s.Pos[i]))
			t.octant[i] = o
			counts[o]++
		}
	}
	var offs [8]int32
	off := int32(0)
	for o := 0; o < 8; o++ {
		offs[o] = off
		off += counts[o]
	}
	// Gather into scratch in octant order, then copy back. Each per-body
	// array is permuted identically.
	pos := t.permA[start:end]
	vel := t.permB[start:end]
	mass := t.permC[start:end]
	idx := t.permD[start:end]
	aux := t.permE[start:end]
	cur := offs
	for i := start; i < end; i++ {
		j := cur[t.octant[i]]
		cur[t.octant[i]]++
		pos[j] = s.Pos[i]
		vel[j] = s.Vel[i]
		mass[j] = s.Mass[i]
		idx[j] = s.Index[i]
		aux[j] = s.Aux[i]
	}
	copy(s.Pos[start:end], pos)
	copy(s.Vel[start:end], vel)
	copy(s.Mass[start:end], mass)
	copy(s.Index[start:end], idx)
	copy(s.Aux[start:end], aux)
	return counts
}

// syncCounts merges per-chunk octant counts under a mutex.
type syncCounts struct {
	mu     sync.Mutex
	counts [8]int32
}

func (c *syncCounts) add(local *[8]int32) {
	c.mu.Lock()
	for o := 0; o < 8; o++ {
		c.counts[o] += local[o]
	}
	c.mu.Unlock()
}

// Collapse hides the children of a visible internal node whose visible
// children are all leaves, making it act as a leaf (the paper's Collapse).
// It returns false when the node is not collapsible.
func (t *Tree) Collapse(ni int32) bool {
	n := &t.Nodes[ni]
	if n.IsVisibleLeaf() {
		return false
	}
	for _, ci := range n.Children {
		if ci == NilNode {
			continue
		}
		if !t.Nodes[ci].IsVisibleLeaf() {
			return false
		}
	}
	n.Collapsed = true
	t.invalidateLevels()
	t.markListsDirty(ni)
	return true
}

// PushDown subdivides a visible leaf: a collapsed node reclaims its hidden
// children, a structural leaf allocates new ones from the node buffer. It
// returns false when the node cannot be pushed down (too few bodies or at
// the depth limit).
func (t *Tree) PushDown(ni int32) bool {
	n := &t.Nodes[ni]
	if !n.IsVisibleLeaf() || n.Count() <= 1 || int(n.Level) >= t.Cfg.MaxDepth {
		return false
	}
	t.invalidateLevels()
	t.markListsDirty(ni)
	if n.Collapsed {
		// Reclaim hidden children: re-partition since bodies may have
		// moved while hidden.
		n.Collapsed = false
		n.Leaf = false
		t.repartitionInto(ni)
		return true
	}
	t.splitNode(ni)
	return true
}

// repartitionInto redistributes ni's body range into its existing children
// (all marked structural leaves afterwards). A child that held hidden
// children of its own drops them from the tree; they are marked for the
// next list repair, which can no longer reach them from the child and
// would otherwise leave their entries in other leaves' lists.
func (t *Tree) repartitionInto(ni int32) {
	n := &t.Nodes[ni]
	counts := t.partition(n.Box, n.Start, n.End)
	off := n.Start
	for o := 0; o < 8; o++ {
		ci := n.Children[o]
		c := &t.Nodes[ci]
		if !c.Leaf {
			for _, gi := range c.Children {
				if gi != NilNode {
					t.markListsDirty(gi)
				}
			}
		}
		c.Start = off
		c.End = off + counts[o]
		c.Leaf = true
		c.Collapsed = false
		off = c.End
	}
}

// EnforceS walks the visible tree restoring the capacity invariant for the
// current S: visible parents holding fewer than S bodies are collapsed,
// visible leaves holding more than S bodies are pushed down (recursively).
// It returns the number of collapse and pushdown operations performed.
func (t *Tree) EnforceS() (collapses, pushdowns int) {
	s := t.Cfg.S
	var walk func(ni int32)
	walk = func(ni int32) {
		n := &t.Nodes[ni]
		if !n.IsVisibleLeaf() {
			for _, ci := range n.Children {
				if ci != NilNode && t.Nodes[ci].Count() > 0 {
					walk(ci)
				}
			}
			// Post-order: collapse underfull twigs (possibly cascading
			// upward through subsequent ancestors' walks).
			n = &t.Nodes[ni]
			if n.Count() < s && t.Collapse(ni) {
				collapses++
			}
			return
		}
		if n.Count() > s && int(n.Level) < t.Cfg.MaxDepth {
			if t.PushDown(ni) {
				pushdowns++
				for _, ci := range t.Nodes[ni].Children {
					if ci != NilNode && t.Nodes[ci].Count() > 0 {
						walk(ci)
					}
				}
			}
		}
	}
	walk(t.Root)
	return collapses, pushdowns
}

// Refill re-bins every body into the existing visible leaf structure after
// positions changed, reordering the particle arrays and refreshing all node
// ranges. Bodies that drifted outside the root cube are assigned to the
// nearest boundary leaf (their true positions are still used in all
// kernels). Structure is untouched; occupancy changes.
func (t *Tree) Refill() {
	t.ensureScratch()
	t.invalidateLevels()
	s := t.Sys
	n := s.Len()
	// Identify visible leaves in DFS order and give each a slot.
	leafSlot := make(map[int32]int32, 64)
	var leaves []int32
	var dfs func(ni int32)
	dfs = func(ni int32) {
		nd := &t.Nodes[ni]
		if nd.IsVisibleLeaf() {
			leafSlot[ni] = int32(len(leaves))
			leaves = append(leaves, ni)
			return
		}
		for _, ci := range nd.Children {
			if ci != NilNode {
				dfs(ci)
			}
		}
	}
	dfs(t.Root)

	// Bin bodies to leaves.
	slotOf := make([]int32, n)
	counts := make([]int32, len(leaves))
	root := &t.Nodes[t.Root]
	for i := 0; i < n; i++ {
		p := clampIntoBox(s.Pos[i], root.Box)
		ni := t.Root
		for !t.Nodes[ni].IsVisibleLeaf() {
			ni = t.Nodes[ni].Children[t.Nodes[ni].Box.Octant(p)]
		}
		slot := leafSlot[ni]
		slotOf[i] = slot
		counts[slot]++
	}
	// Prefix offsets in DFS leaf order.
	offs := make([]int32, len(leaves)+1)
	for k := range leaves {
		offs[k+1] = offs[k] + counts[k]
	}
	// Gather bodies into the new order.
	pos := t.permA[:n]
	vel := t.permB[:n]
	mass := t.permC[:n]
	idx := t.permD[:n]
	aux := t.permE[:n]
	cur := append([]int32(nil), offs[:len(leaves)]...)
	for i := 0; i < n; i++ {
		j := cur[slotOf[i]]
		cur[slotOf[i]]++
		pos[j] = s.Pos[i]
		vel[j] = s.Vel[i]
		mass[j] = s.Mass[i]
		idx[j] = s.Index[i]
		aux[j] = s.Aux[i]
	}
	copy(s.Pos, pos)
	copy(s.Vel, vel)
	copy(s.Mass, mass)
	copy(s.Index, idx)
	copy(s.Aux, aux)
	// Set leaf ranges, then propagate to ancestors.
	for k, ni := range leaves {
		t.Nodes[ni].Start = offs[k]
		t.Nodes[ni].End = offs[k+1]
	}
	t.refreshRanges(t.Root)
	// Occupancy changed: the near-field rows are stale, and any
	// empty/non-empty flip changes the dual-traversal topology.
	t.nearRowsOK = false
	t.noteRefillOccupancy()
}

// refreshRanges recomputes internal node ranges bottom-up from the visible
// leaves (hidden subtrees inherit their parent's range lazily when
// reclaimed by PushDown).
func (t *Tree) refreshRanges(ni int32) (start, end int32) {
	n := &t.Nodes[ni]
	if n.IsVisibleLeaf() {
		return n.Start, n.End
	}
	first := true
	for _, ci := range n.Children {
		if ci == NilNode {
			continue
		}
		cs, ce := t.refreshRanges(ci)
		if first {
			start, end = cs, ce
			first = false
		} else {
			if cs < start {
				start = cs
			}
			if ce > end {
				end = ce
			}
		}
	}
	n.Start, n.End = start, end
	return start, end
}

func clampIntoBox(p geom.Vec3, b geom.Box) geom.Vec3 {
	lo := b.Center.Sub(geom.Vec3{X: b.Half, Y: b.Half, Z: b.Half})
	hi := b.Center.Add(geom.Vec3{X: b.Half, Y: b.Half, Z: b.Half})
	eps := b.Half * 1e-12
	clampAxis := func(x, lo, hi float64) float64 {
		if x < lo {
			return lo
		}
		if x >= hi {
			return hi - eps
		}
		return x
	}
	return geom.Vec3{
		X: clampAxis(p.X, lo.X, hi.X),
		Y: clampAxis(p.Y, lo.Y, hi.Y),
		Z: clampAxis(p.Z, lo.Z, hi.Z),
	}
}

// LevelOrder returns the visible nodes grouped by level: element l holds
// the node indices with Node.Level == l, in DFS order, covering exactly
// the nodes WalkVisible reaches. The index is the backbone of the step
// graph's far-field chunks (all nodes of one level are data-independent
// given the adjacent levels) and is cached until a
// structural or occupancy edit — Rebuild, Collapse, PushDown, EnforceS,
// Refill — invalidates it. The returned slices are owned by the tree and
// valid until the next invalidation.
func (t *Tree) LevelOrder() [][]int32 {
	if t.levelsOK {
		return t.levels
	}
	for i := range t.levels {
		t.levels[i] = t.levels[i][:0]
	}
	t.WalkVisible(func(ni int32) {
		lv := int(t.Nodes[ni].Level)
		for len(t.levels) <= lv {
			t.levels = append(t.levels, nil)
		}
		t.levels[lv] = append(t.levels[lv], ni)
	})
	for len(t.levels) > 0 && len(t.levels[len(t.levels)-1]) == 0 {
		t.levels = t.levels[:len(t.levels)-1]
	}
	t.levelsOK = true
	return t.levels
}

// invalidateLevels marks the cached level and leaf indices stale.
func (t *Tree) invalidateLevels() {
	t.levelsOK = false
	t.leavesOK = false
}

// VisibleLeaves returns the indices of the visible leaves in DFS order.
// Like LevelOrder it is cached until the next structural or occupancy edit;
// the returned slice is owned by the tree and valid until then.
func (t *Tree) VisibleLeaves() []int32 {
	if t.leavesOK {
		return t.leaves
	}
	t.leaves = t.leaves[:0]
	t.WalkVisible(func(ni int32) {
		if t.Nodes[ni].IsVisibleLeaf() {
			t.leaves = append(t.leaves, ni)
		}
	})
	t.leavesOK = true
	return t.leaves
}

// WalkVisible calls f for every visible node in DFS preorder, skipping
// empty subtrees.
func (t *Tree) WalkVisible(f func(ni int32)) {
	var dfs func(ni int32)
	dfs = func(ni int32) {
		n := &t.Nodes[ni]
		if n.Count() == 0 {
			return
		}
		f(ni)
		if n.IsVisibleLeaf() {
			return
		}
		for _, ci := range n.Children {
			if ci != NilNode {
				dfs(ci)
			}
		}
	}
	dfs(t.Root)
}

// Stats summarizes the visible tree shape.
type Stats struct {
	Nodes         int // allocated arena nodes
	VisibleNodes  int
	VisibleLeaves int
	MaxDepth      int
	MinLeafDepth  int
	MaxLeafOcc    int
	AvgLeafOcc    float64
}

// ComputeStats returns shape statistics of the visible tree.
func (t *Tree) ComputeStats() Stats {
	st := Stats{Nodes: len(t.Nodes), MinLeafDepth: 1 << 30}
	var occ int
	t.WalkVisible(func(ni int32) {
		n := &t.Nodes[ni]
		st.VisibleNodes++
		if int(n.Level) > st.MaxDepth {
			st.MaxDepth = int(n.Level)
		}
		if n.IsVisibleLeaf() {
			st.VisibleLeaves++
			occ += n.Count()
			if n.Count() > st.MaxLeafOcc {
				st.MaxLeafOcc = n.Count()
			}
			if int(n.Level) < st.MinLeafDepth {
				st.MinLeafDepth = int(n.Level)
			}
		}
	})
	if st.VisibleLeaves > 0 {
		st.AvgLeafOcc = float64(occ) / float64(st.VisibleLeaves)
	} else {
		st.MinLeafDepth = 0
	}
	return st
}

// Validate checks structural invariants: ranges partition correctly, every
// body lies in its leaf range, child boxes tile parents, and the visible
// leaves partition [0, N).
func (t *Tree) Validate() error {
	s := t.Sys
	if err := s.Validate(); err != nil {
		return err
	}
	var leaves []int32
	var dfs func(ni int32) error
	dfs = func(ni int32) error {
		n := &t.Nodes[ni]
		if n.Start > n.End || n.Start < 0 || int(n.End) > s.Len() {
			return fmt.Errorf("octree: node %d bad range [%d,%d)", ni, n.Start, n.End)
		}
		if n.IsVisibleLeaf() {
			leaves = append(leaves, ni)
			return nil
		}
		off := n.Start
		for o, ci := range n.Children {
			if ci == NilNode {
				return fmt.Errorf("octree: internal node %d missing child %d", ni, o)
			}
			c := &t.Nodes[ci]
			if c.Parent != ni {
				return fmt.Errorf("octree: child %d of %d has parent %d", ci, ni, c.Parent)
			}
			if c.Start != off {
				return fmt.Errorf("octree: child %d range not contiguous: start %d want %d", ci, c.Start, off)
			}
			off = c.End
			if err := dfs(ci); err != nil {
				return err
			}
		}
		if off != n.End {
			return fmt.Errorf("octree: node %d children cover [%d,%d) want end %d", ni, n.Start, off, n.End)
		}
		return nil
	}
	if err := dfs(t.Root); err != nil {
		return err
	}
	covered := int32(0)
	for _, ni := range leaves {
		n := &t.Nodes[ni]
		if n.Start != covered {
			return fmt.Errorf("octree: leaf %d starts at %d want %d", ni, n.Start, covered)
		}
		covered = n.End
	}
	if covered != int32(s.Len()) {
		return fmt.Errorf("octree: leaves cover %d bodies, want %d", covered, s.Len())
	}
	return nil
}
