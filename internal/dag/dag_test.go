package dag

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"afmm/internal/distrib"
	"afmm/internal/octree"
	"afmm/internal/particle"
	"afmm/internal/sched"
)

// The builder's edges against a brute-force dependence analysis: every
// task's reads and writes are written down per (tree node, operator) from
// what the operators do — M2M reads the children's multipoles, M2L the V
// list's, L2L the parent's local, L2P a leaf's local, and near field and
// L2P both update a leaf's bodies — and two tasks depend when the earlier
// one in the sequential sweep order writes what the later one touches.

type taskKind int

const (
	kindMilestone taskKind = iota
	kindUp
	kindDown
	kindL2P
	kindNear
	kindArrive
	kindSend
)

// res is one datum a task touches: a node's multipole ('M') or local
// ('L'), the accumulators of a leaf's bodies ('A'), a copy of a remote
// leaf's bodies ('G'), or the reactions near chunk c holds for a leaf
// ('R') — in the slabs of the graph that computes share k (0 on one node).
type res struct {
	share int
	slab  byte
	ni    int32
	chunk int
}

type task struct {
	kind   taskKind
	level  int
	reads  []res
	writes []res
}

// recorder stands in for *sched.Graph. Node runs the closure at once: the
// test's chunk bodies do no work but describe themselves into cur.
type recorder struct {
	tasks []task
	edges map[[2]sched.NodeID]bool
	order [][2]sched.NodeID // the Edge calls in sequence
	cur   task
}

func (r *recorder) Node(_ sched.Class, _, _ int32, fn func()) sched.NodeID {
	r.cur = task{kind: kindMilestone}
	fn()
	r.tasks = append(r.tasks, r.cur)
	return sched.NodeID(len(r.tasks) - 1)
}

func (r *recorder) Edge(from, to sched.NodeID) {
	r.edges[[2]sched.NodeID{from, to}] = true
	r.order = append(r.order, [2]sched.NodeID{from, to})
}

// describe returns the spec of share sh (computed by graph k) whose chunk
// bodies record their brute-force access sets into r.
func describe(r *recorder, t *octree.Tree, pool *sched.Pool, k int, sh Share) Spec {
	leafAcc := func(leaves []int32) (out []res) {
		for _, li := range leaves {
			out = append(out, res{k, 'A', li, 0})
		}
		return out
	}
	sch := t.NearField()
	own := func(ni int32) bool { s := t.Nodes[ni].Start; return sh.Lo <= s && s < sh.Hi }
	// folds are the reactions a leaf node adds to its leaves' bodies.
	folds := func(leaves []int32) (out []res) {
		for _, li := range leaves {
			if r := sch.RowOf(li); r >= 0 {
				chunks, _ := sch.Fold(r)
				for _, c := range chunks {
					out = append(out, res{k, 'R', li, int(c)})
				}
			}
		}
		return out
	}
	return Spec{
		Tree:  t,
		Pool:  pool,
		Share: sh,
		UpChunk: func(nodes []int32) func() {
			return func() {
				r.cur = task{kind: kindUp, level: int(t.Nodes[nodes[0]].Level)}
				for _, ni := range nodes {
					r.cur.writes = append(r.cur.writes, res{k, 'M', ni, 0})
					if n := &t.Nodes[ni]; !n.IsVisibleLeaf() {
						for _, ci := range n.Children {
							if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
								r.cur.reads = append(r.cur.reads, res{k, 'M', ci, 0})
							}
						}
					}
				}
			}
		},
		DownChunk: func(nodes []int32) func() {
			return func() {
				r.cur = task{kind: kindDown, level: int(t.Nodes[nodes[0]].Level)}
				for _, ni := range nodes {
					n := &t.Nodes[ni]
					r.cur.writes = append(r.cur.writes, res{k, 'L', ni, 0})
					if n.Parent != octree.NilNode {
						r.cur.reads = append(r.cur.reads, res{k, 'L', n.Parent, 0})
					}
					for _, vi := range n.V {
						// A pair summed directly reads no multipole.
						if !t.Direct(ni, vi) {
							r.cur.reads = append(r.cur.reads, res{k, 'M', vi, 0})
						}
					}
				}
			}
		},
		L2P: func(leaves []int32) func() {
			return func() {
				r.cur = task{kind: kindL2P, writes: leafAcc(leaves), reads: folds(leaves)}
				for _, li := range leaves {
					r.cur.reads = append(r.cur.reads, res{k, 'L', li, 0})
				}
			}
		},
		// A mutual chunk: an owned row writes its leaf's bodies, reads its
		// remote sources' copies and writes the reactions of its owned
		// partners; a remote row with an owned partner is read from its
		// copy and writes that partner's reactions.
		NearChunk: func(c int, lo, hi int32) func() {
			return func() {
				r.cur = task{kind: kindNear}
				slotted := map[int32]bool{}
				rlo, rhi := sch.Chunk(c)
				for row := rlo; row < rhi; row++ {
					a := sch.Leaves[row]
					if own(a) {
						r.cur.writes = append(r.cur.writes, res{k, 'A', a, 0})
						for _, si := range sch.Row(row) {
							if !own(si) {
								r.cur.reads = append(r.cur.reads, res{k, 'G', si, 0})
							}
						}
					}
					for e := sch.Upper[row] + 1; e < sch.RowPtr[row+1]; e++ {
						if b := sch.Srcs[e]; own(b) {
							if !slotted[b] {
								slotted[b] = true
								r.cur.writes = append(r.cur.writes, res{k, 'R', b, c})
							}
							if !own(a) {
								r.cur.reads = append(r.cur.reads, res{k, 'G', a, 0})
							}
						}
					}
				}
			}
		},
		Tags: Tags{Milestone: -1},
	}
}

// record builds the whole tree's graph into a recorder.
func record(t *octree.Tree, pool *sched.Pool) *recorder {
	r := &recorder{edges: map[[2]sched.NodeID]bool{}}
	build(describe(r, t, pool, 0, Share{Hi: int32(t.Sys.Len())}), r)
	return r
}

// phase orders the tasks as the sequential solve runs them: up sweep from
// the deepest level, near field, down sweep from the root, leaf evaluation.
func (k task) phase(nLevels int) int {
	switch k.kind {
	case kindUp:
		return nLevels - k.level
	case kindNear:
		return nLevels + 1
	case kindDown:
		return nLevels + 2 + k.level
	default:
		return 2*nLevels + 3
	}
}

func TestBuildEdgesMatchDependences(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		var sys *particle.System
		n, seed := 300+rng.Intn(2500), int64(rng.Intn(1000))
		switch trial % 3 {
		case 0:
			sys = distrib.Plummer(n, 1, 1, seed)
		case 1:
			sys = distrib.UniformCube(n, 1, seed)
		default:
			sys = distrib.TwoClusters(n, 0.3, 1, 8, 0, seed)
		}
		tr := octree.Build(sys, octree.Config{S: 4 + rng.Intn(40)})
		tr.BuildLists()
		// From "translate everything" to "sum every mutual leaf pair".
		tr.SetDirectK([]int64{0, 30, 400, math.MaxInt64}[trial%4])
		workers := 1 + rng.Intn(6)
		name := fmt.Sprintf("trial %d (n=%d S=%d workers=%d)", trial, n, tr.Cfg.S, workers)
		r := record(tr, sched.NewPool(workers))
		nLevels := len(tr.LevelOrder())

		// The share [0, N) is the parent's whole-tree graph, node for node
		// and edge for edge, in the same order.
		ref := &recorder{edges: map[[2]sched.NodeID]bool{}}
		parentBuild(describe(ref, tr, sched.NewPool(workers), 0, Share{Hi: int32(n)}), ref)
		if !reflect.DeepEqual(r.tasks, ref.tasks) || !reflect.DeepEqual(r.order, ref.order) {
			t.Fatalf("%s: share [0, N) records %d nodes / %d edges, the parent's builder %d / %d (or the same in another order)",
				name, len(r.tasks), len(r.order), len(ref.tasks), len(ref.order))
		}

		// One chain: every occupied cell is computed by exactly one up and
		// one down task, every visible leaf evaluated once.
		writers := map[res][]sched.NodeID{}
		for id, k := range r.tasks {
			for _, w := range k.writes {
				writers[w] = append(writers[w], sched.NodeID(id))
			}
		}
		// A leaf's bodies: the near chunk of its row, and its leaf node
		// (the fold of the mutual near field, then L2P).
		for ni := range tr.Nodes {
			if tr.Nodes[ni].Count() == 0 {
				continue
			}
			if m, l := len(writers[res{0, 'M', int32(ni), 0}]), len(writers[res{0, 'L', int32(ni), 0}]); m != 1 || l != 1 {
				t.Fatalf("%s: node %d has %d up and %d down tasks, want 1 of each", name, ni, m, l)
			}
		}
		for _, li := range tr.VisibleLeaves() {
			if got := len(writers[res{0, 'A', li, 0}]); got != 2 {
				t.Fatalf("%s: leaf %d bodies are written by %d tasks, want 2", name, li, got)
			}
		}

		// Brute-force dependences: a writer of anything a later task
		// touches (reads, or — the body accumulators — updates).
		deps := map[[2]sched.NodeID]bool{}
		for id, k := range r.tasks {
			for _, touched := range [][]res{k.reads, k.writes} {
				for _, x := range touched {
					for _, w := range writers[x] {
						if r.tasks[w].phase(nLevels) < k.phase(nLevels) {
							deps[[2]sched.NodeID{w, sched.NodeID(id)}] = true
						}
					}
				}
			}
		}

		// The builder's edges with the milestones contracted.
		edges := map[[2]sched.NodeID]bool{}
		for e := range r.edges {
			if r.tasks[e[0]].kind == kindMilestone {
				continue
			}
			if r.tasks[e[1]].kind != kindMilestone {
				edges[e] = true
				continue
			}
			for f := range r.edges {
				if f[0] == e[1] {
					edges[[2]sched.NodeID{e[0], f[1]}] = true
				}
			}
		}

		for d := range deps {
			if !edges[d] {
				a, b := r.tasks[d[0]], r.tasks[d[1]]
				t.Fatalf("%s: task %d (kind %d level %d) must precede task %d (kind %d level %d): no edge",
					name, d[0], a.kind, a.level, d[1], b.kind, b.level)
			}
		}
		// What the builder adds beyond the dependences is exactly its two
		// documented granularities: M2L waits for the whole partner level
		// (the up milestone), and M2M/L2L wait for the chunk span between
		// the first and last chunk they read.
		for e := range edges {
			if deps[e] {
				continue
			}
			a, b := r.tasks[e[0]], r.tasks[e[1]]
			lo, hi := sched.NodeID(-1), sched.NodeID(-1)
			for d := range deps {
				if p := r.tasks[d[0]]; d[1] == e[1] && p.kind == a.kind && p.level == a.level {
					if lo < 0 || d[0] < lo {
						lo = d[0]
					}
					hi = max(hi, d[0])
				}
			}
			switch {
			case a.kind == kindUp && b.kind == kindDown && lo >= 0:
			case a.kind == b.kind && (a.kind == kindUp || a.kind == kindDown) && lo < e[0] && e[0] < hi:
			default:
				t.Fatalf("%s: edge %d (kind %d level %d) -> %d (kind %d level %d) orders tasks that share no data",
					name, e[0], a.kind, a.level, e[1], b.kind, b.level)
			}
		}
	}
}

// TestWholeTreeShareMatchesParentOnCollapsedTree: the balancer hides the
// children of collapsed nodes; the share [0, N) still records the parent's
// graph there, for every pool size.
func TestWholeTreeShareMatchesParentOnCollapsedTree(t *testing.T) {
	tr := octree.Build(distrib.Plummer(2500, 1, 1, 9), octree.Config{S: 8})
	// Collapse the parents of the deepest leaves (the hidden children then
	// sit below the last visible level) and every third node elsewhere.
	levels := tr.LevelOrder()
	collapsed := 0
	for ni := range tr.Nodes {
		if (ni%3 == 0 || int(tr.Nodes[ni].Level) == len(levels)-2) && tr.Collapse(int32(ni)) {
			collapsed++
		}
	}
	if collapsed == 0 || len(tr.LevelOrder()) != len(levels)-1 {
		t.Fatalf("%d nodes collapsed, %d -> %d levels", collapsed, len(levels), len(tr.LevelOrder()))
	}
	tr.BuildLists()
	for workers := 1; workers <= 4; workers++ {
		whole := Share{Hi: int32(tr.Sys.Len())}
		r := record(tr, sched.NewPool(workers))
		ref := &recorder{edges: map[[2]sched.NodeID]bool{}}
		parentBuild(describe(ref, tr, sched.NewPool(workers), 0, whole), ref)
		if !reflect.DeepEqual(r.tasks, ref.tasks) || !reflect.DeepEqual(r.order, ref.order) {
			t.Fatalf("%d workers: share [0, N) records %d nodes / %d edges, the parent's builder %d / %d (or the same in another order)",
				workers, len(r.tasks), len(r.order), len(ref.tasks), len(ref.order))
		}
	}
}

// shareCuts returns p+1 leaf-aligned body cuts for the named split.
func shareCuts(t *octree.Tree, p int, split string) []int32 {
	n := float64(t.Sys.Len())
	cuts := make([]int32, p+1)
	for k := 1; k < p; k++ {
		f := float64(k) / float64(p)
		switch split {
		case "skewed": // 80% on the first node, the rest shared equally
			f = 0.8 + 0.2*float64(k-1)/float64(p-1)
		case "empty": // node p-2 owns nothing
			f = float64(min(k, p-2)) / float64(p-1)
			if k > p-2 {
				f = float64(k-1) / float64(p-1)
			}
		}
		cuts[k] = max(cuts[k-1], t.SnapToLeafEnd(int32(f*n)))
	}
	cuts[p] = int32(n)
	return cuts
}

// TestSharesJoinIntoTheWholeTreesDependences gives the distributed graphs
// the single-node oracle: the p share graphs are recorded into one graph
// the way a dmem step assembles it — per node an unpack node per incoming
// flow writing the remote data it delivers into the receiver's slabs, the
// share, a send node per outgoing flow reading what it ships after that
// level's chunks — and joined by the flows (send -> unpack). Every datum
// then has one writer, and every task that reads it runs after that
// writer: the whole tree's dependences, whoever computes what.
func TestSharesJoinIntoTheWholeTreesDependences(t *testing.T) {
	sys := distrib.TwoClusters(3000, 0.3, 1, 8, 0, 5)
	tr := octree.Build(sys, octree.Config{S: 12})
	for ni := range tr.Nodes {
		if ni%5 == 0 {
			tr.Collapse(int32(ni)) // some leaves hide children, as under the balancer
		}
	}
	tr.BuildLists()
	tr.SetDirectK(30)
	sch := tr.NearField()
	if sch.DirectPairs == 0 {
		t.Fatal("no accepted pair summed directly: ghost flows of direct pairs are not exercised")
	}
	pool := sched.NewPool(2)
	type wire struct {
		slab     byte
		from, to int
		level    int32
	}
	for _, p := range []int{2, 3, 4} {
		for _, split := range []string{"equal", "skewed", "empty"} {
			name := fmt.Sprintf("p=%d %s", p, split)
			cuts := shareCuts(tr, p, split)
			owner := func(ni int32) int {
				return sort.Search(p, func(k int) bool { return cuts[k+1] > tr.Nodes[ni].Start })
			}

			// The plan's flows, by brute force: what each cell's operators
			// read from a cell another node owns.
			flows := map[wire][]int32{}
			asked := map[res]bool{}
			need := func(slab byte, to int, ci int32) {
				if from := owner(ci); from != to && !asked[res{to, slab, ci, 0}] {
					asked[res{to, slab, ci, 0}] = true
					k := wire{slab, from, to, tr.Nodes[ci].Level}
					if slab == 'G' {
						k.level = 0
					}
					flows[k] = append(flows[k], ci)
				}
			}
			tr.WalkVisible(func(ni int32) {
				n, k := &tr.Nodes[ni], owner(ni)
				if !n.IsVisibleLeaf() {
					for _, ci := range n.Children {
						if ci != octree.NilNode && tr.Nodes[ci].Count() > 0 {
							need('M', k, ci)
						}
					}
				}
				for _, vi := range n.V {
					if !tr.Direct(ni, vi) {
						need('M', k, vi)
					}
				}
				if n.Parent != octree.NilNode {
					need('L', k, n.Parent)
				}
			})
			for r, li := range sch.Leaves {
				for _, si := range sch.Srcs[sch.RowPtr[r]:sch.RowPtr[r+1]] {
					need('G', owner(li), si)
				}
			}
			keys := make([]wire, 0, len(flows))
			for k := range flows {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })

			// Arrivals, shares, sends, wires.
			r := &recorder{edges: map[[2]sched.NodeID]bool{}}
			arrival := map[wire]sched.NodeID{}
			at := make([]map[byte][]sched.NodeID, p)
			for k := range at {
				at[k] = map[byte][]sched.NodeID{}
				for _, slab := range "MLG" {
					ids := make([]sched.NodeID, len(tr.Nodes))
					for i := range ids {
						ids[i] = -1
					}
					at[k][byte(slab)] = ids
				}
			}
			for _, fk := range keys {
				id := r.Node(sched.ClassGeneral, -1, 0, func() {
					r.cur = task{kind: kindArrive}
					for _, ci := range flows[fk] {
						r.cur.writes = append(r.cur.writes, res{fk.to, fk.slab, ci, 0})
					}
				})
				arrival[fk] = id
				for _, ci := range flows[fk] {
					at[fk.to][fk.slab][ci] = id
				}
			}
			done := make([]Done, p)
			for k := 0; k < p; k++ {
				sh := Share{Lo: cuts[k], Hi: cuts[k+1], Mpole: at[k]['M'], Local: at[k]['L'], Ghost: at[k]['G']}
				done[k] = build(describe(r, tr, pool, k, sh), r)
			}
			for _, fk := range keys {
				id := r.Node(sched.ClassFar, -1, 0, func() {
					r.cur = task{kind: kindSend}
					for _, ci := range flows[fk] {
						if fk.slab != 'G' { // bodies are step inputs
							r.cur.reads = append(r.cur.reads, res{fk.from, fk.slab, ci, 0})
						}
					}
				})
				switch fk.slab {
				case 'M':
					for _, c := range done[fk.from].Up[fk.level] {
						r.Edge(c, id)
					}
				case 'L':
					for _, c := range done[fk.from].Down[fk.level] {
						r.Edge(c, id)
					}
				}
				r.Edge(id, arrival[fk])
			}

			// One graph, acyclic: before[b] holds every a that must run
			// before b, filled in topological order.
			n := len(r.tasks)
			succs := make([][]sched.NodeID, n)
			indeg := make([]int, n)
			for e := range r.edges {
				succs[e[0]] = append(succs[e[0]], e[1])
				indeg[e[1]]++
			}
			var order []sched.NodeID
			for id := range r.tasks {
				if indeg[id] == 0 {
					order = append(order, sched.NodeID(id))
				}
			}
			before := make([]map[sched.NodeID]bool, n)
			for i := 0; i < len(order); i++ {
				a := order[i]
				if before[a] == nil {
					before[a] = map[sched.NodeID]bool{}
				}
				for _, b := range succs[a] {
					if before[b] == nil {
						before[b] = map[sched.NodeID]bool{}
					}
					before[b][a] = true
					for x := range before[a] {
						before[b][x] = true
					}
					if indeg[b]--; indeg[b] == 0 {
						order = append(order, b)
					}
				}
			}
			if len(order) != n {
				t.Fatalf("%s: the joined graph has a cycle (%d of %d nodes sort)", name, len(order), n)
			}

			// Every cell is computed once, by its owner; every leaf's bodies
			// take the near field and then one L2P there.
			writers := map[res][]sched.NodeID{}
			for id, k := range r.tasks {
				for _, w := range k.writes {
					writers[w] = append(writers[w], sched.NodeID(id))
				}
			}
			tr.WalkVisible(func(ni int32) {
				k := owner(ni)
				if m, l := len(writers[res{k, 'M', ni, 0}]), len(writers[res{k, 'L', ni, 0}]); m != 1 || l != 1 {
					t.Fatalf("%s: node %d has %d up and %d down tasks at its owner %d, want 1 of each", name, ni, m, l, k)
				}
				if tr.Nodes[ni].IsVisibleLeaf() {
					w := writers[res{k, 'A', ni, 0}]
					if len(w) != 2 {
						t.Fatalf("%s: leaf %d bodies are written by %d tasks, want 2", name, ni, len(w))
					}
					if !(r.tasks[w[0]].kind == kindNear && r.tasks[w[1]].kind == kindL2P && before[w[1]][w[0]]) {
						t.Fatalf("%s: leaf %d: L2P is not ordered after the near field", name, ni)
					}
				}
			})
			// Every read is ordered after its one write.
			for id, k := range r.tasks {
				for _, x := range k.reads {
					w := writers[x]
					if len(w) != 1 {
						t.Fatalf("%s: task %d (kind %d level %d) reads %c of node %d in share %d, which has %d writers",
							name, id, k.kind, k.level, x.slab, x.ni, x.share, len(w))
					}
					if !before[id][w[0]] {
						t.Fatalf("%s: task %d (kind %d level %d) reads %c of node %d in share %d before task %d (kind %d) wrote it",
							name, id, k.kind, k.level, x.slab, x.ni, x.share, w[0], r.tasks[w[0]].kind)
					}
				}
			}
			if p > 1 && split != "empty" && len(keys) == 0 {
				t.Fatalf("%s: no flow crosses a cut", name)
			}
		}
	}
}

// parentBuild is the builder as it was before shares, kept as the
// reference the share [0, N) is compared against; its near field is the
// tree's chunks, as the builder's has been since the near field became
// mutual.
func parentBuild(spec Spec, g graph) {
	t := spec.Tree
	pool := spec.Pool
	levels := t.LevelOrder()
	nLevels := len(levels)
	sch := t.NearField()

	// Position of every node within its level slice: children of a
	// contiguous DFS-ordered parent range form a contiguous range at the
	// next level, so chunk-to-chunk dependencies reduce to span overlap.
	pos := make([]int32, len(t.Nodes))
	for _, lvNodes := range levels {
		for i, ni := range lvNodes {
			pos[ni] = int32(i)
		}
	}

	// Near-field roots: one per tree chunk that holds rows.
	var nearIDs [octree.NearChunks]sched.NodeID
	leafEdges := func(leaves []int32, to sched.NodeID) {
		var set uint32
		for _, li := range leaves {
			r := sch.RowOf(li)
			if r < 0 {
				continue
			}
			c := 0
			for int(sch.Chunks[c+1]) <= r {
				c++
			}
			set |= 1 << c
			chunks, _ := sch.Fold(r)
			for _, c := range chunks {
				set |= 1 << c
			}
		}
		for c := range octree.NearChunks {
			if set&(1<<c) != 0 {
				g.Edge(nearIDs[c], to)
			}
		}
	}
	for c := range octree.NearChunks {
		nearIDs[c] = -1
		if lo, hi := sch.Chunk(c); lo < hi {
			nearIDs[c] = g.Node(sched.ClassNear, spec.Tags.Near, int32(c), spec.NearChunk(c, 0, int32(t.Sys.Len())))
		}
	}

	// Per-level chunk bounds for both sweeps.
	upBounds := make([][]int, nLevels)
	downBounds := make([][]int, nLevels)
	var wbuf []int64
	weigh := func(nodes []int32, w func(int32) int64) []int64 {
		wbuf = wbuf[:0]
		for _, ni := range nodes {
			wbuf = append(wbuf, w(ni))
		}
		return wbuf
	}
	for lv := 0; lv < nLevels; lv++ {
		if len(levels[lv]) == 0 {
			continue
		}
		upBounds[lv] = pool.WeightedBounds(weigh(levels[lv], func(ni int32) int64 { return upWeight(t, ni) }))
		downBounds[lv] = pool.WeightedBounds(weigh(levels[lv], func(ni int32) int64 { return downWeight(t, ni) }))
	}

	// Up sweep, bottom-up: chunk nodes plus one milestone per level
	// joining the level's chunks (a single-chunk level is its own
	// milestone). The milestones carry the cross-level M2L dependencies.
	upIDs := make([][]sched.NodeID, nLevels)
	upMile := make([]sched.NodeID, nLevels)
	for lv := range upMile {
		upMile[lv] = -1
	}
	for lv := nLevels - 1; lv >= 0; lv-- {
		nodes := levels[lv]
		if len(nodes) == 0 {
			continue
		}
		b := upBounds[lv]
		for c := 0; c+1 < len(b); c++ {
			lo, hi := b[c], b[c+1]
			id := g.Node(sched.ClassFar, spec.Tags.Up, int32(lv), spec.UpChunk(nodes[lo:hi]))
			if lv+1 < nLevels && len(upIDs[lv+1]) > 0 {
				if clo, chi, ok := oldChildSpan(t, pos, nodes[lo:hi]); ok {
					forChunks(upBounds[lv+1], clo, chi+1, func(k int) {
						g.Edge(upIDs[lv+1][k], id)
					})
				}
			}
			upIDs[lv] = append(upIDs[lv], id)
		}
		if len(upIDs[lv]) == 1 {
			upMile[lv] = upIDs[lv][0]
		} else {
			ms := g.Node(sched.ClassFar, spec.Tags.Milestone, int32(lv), func() {})
			for _, id := range upIDs[lv] {
				g.Edge(id, ms)
			}
			upMile[lv] = ms
		}
	}

	// Down sweep, top-down, with the L2P nodes hanging off each level's
	// down chunks.
	downIDs := make([][]sched.NodeID, nLevels)
	vSeen := make([]bool, nLevels)
	var vTouched []int
	for lv := 0; lv < nLevels; lv++ {
		nodes := levels[lv]
		if len(nodes) == 0 {
			continue
		}
		b := downBounds[lv]
		for c := 0; c+1 < len(b); c++ {
			lo, hi := b[c], b[c+1]
			// Levels holding this chunk's translated V-list partners (the
			// adaptive traversal pairs nodes across levels).
			vTouched = vTouched[:0]
			for _, ni := range nodes[lo:hi] {
				direct := t.DirectMask(ni)
				for k, vi := range t.Nodes[ni].V {
					if direct[k] {
						continue
					}
					if pl := int(t.Nodes[vi].Level); !vSeen[pl] {
						vSeen[pl] = true
						vTouched = append(vTouched, pl)
					}
				}
			}
			id := g.Node(sched.ClassFar, spec.Tags.Down, int32(lv), spec.DownChunk(nodes[lo:hi]))
			if lv > 0 && len(downIDs[lv-1]) > 0 {
				plo, phi, ok := oldParentSpan(t, pos, nodes[lo:hi])
				if ok {
					forChunks(downBounds[lv-1], plo, phi+1, func(k int) {
						g.Edge(downIDs[lv-1][k], id)
					})
				}
			}
			for _, pl := range vTouched {
				if upMile[pl] >= 0 {
					g.Edge(upMile[pl], id)
				}
				vSeen[pl] = false
			}
			downIDs[lv] = append(downIDs[lv], id)
			var leaves []int32
			for _, ni := range nodes[lo:hi] {
				if t.Nodes[ni].IsVisibleLeaf() {
					leaves = append(leaves, ni)
				}
			}
			if len(leaves) == 0 {
				continue
			}
			l2p := g.Node(sched.ClassFar, spec.Tags.L2P, int32(lv), spec.L2P(leaves))
			g.Edge(id, l2p)
			leafEdges(leaves, l2p)
		}
	}
}

// oldChildSpan returns the position span (inclusive) at level lv+1 covered
// by the children of the given level-lv nodes; ok is false when no node
// has an occupied child.
func oldChildSpan(t *octree.Tree, pos []int32, nodes []int32) (lo, hi int, ok bool) {
	lo, hi = 1<<30, -1
	for _, ni := range nodes {
		for _, ci := range t.Nodes[ni].Children {
			if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
				p := int(pos[ci])
				if p < lo {
					lo = p
				}
				if p > hi {
					hi = p
				}
			}
		}
	}
	return lo, hi, hi >= 0
}

// oldParentSpan returns the position span (inclusive) at level lv-1 covered
// by the parents of the given level-lv nodes.
func oldParentSpan(t *octree.Tree, pos []int32, nodes []int32) (lo, hi int, ok bool) {
	lo, hi = 1<<30, -1
	for _, ni := range nodes {
		if pi := t.Nodes[ni].Parent; pi != octree.NilNode {
			p := int(pos[pi])
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
	}
	return lo, hi, hi >= 0
}
