package dag

import (
	"fmt"
	"math"
	"math/rand"
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
)

// res is one datum a task touches: a node's multipole ('M') or local
// ('L'), or the accumulators of a leaf's bodies ('A').
type res struct {
	slab byte
	ni   int32
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
	cur   task
}

func (r *recorder) Node(_ sched.Class, _, _ int32, fn func()) sched.NodeID {
	r.cur = task{kind: kindMilestone}
	fn()
	r.tasks = append(r.tasks, r.cur)
	return sched.NodeID(len(r.tasks) - 1)
}

func (r *recorder) Edge(from, to sched.NodeID) { r.edges[[2]sched.NodeID{from, to}] = true }

// record builds the spec's graph into a recorder whose tasks carry their
// brute-force access sets; without far the spec has no far-field chunks.
func record(t *octree.Tree, pool *sched.Pool, near string, far bool) *recorder {
	r := &recorder{edges: map[[2]sched.NodeID]bool{}}
	leafAcc := func(leaves []int32) (out []res) {
		for _, li := range leaves {
			out = append(out, res{'A', li})
		}
		return out
	}
	spec := Spec{
		Tree: t,
		Pool: pool,
		UpWeight: func(ni int32) int64 {
			if n := &t.Nodes[ni]; n.IsVisibleLeaf() {
				return int64(n.Count()) + 1
			}
			return 33
		},
		DownWeight: func(ni int32) int64 { return int64(t.FarPairs(ni))*12 + 5 },
		UpChunk: func(lv int, nodes []int32) func() {
			return func() {
				r.cur = task{kind: kindUp, level: lv}
				for _, ni := range nodes {
					r.cur.writes = append(r.cur.writes, res{'M', ni})
					if n := &t.Nodes[ni]; !n.IsVisibleLeaf() {
						for _, ci := range n.Children {
							if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
								r.cur.reads = append(r.cur.reads, res{'M', ci})
							}
						}
					}
				}
			}
		},
		DownChunk: func(lv int, nodes []int32) func() {
			return func() {
				r.cur = task{kind: kindDown, level: lv}
				for _, ni := range nodes {
					n := &t.Nodes[ni]
					r.cur.writes = append(r.cur.writes, res{'L', ni})
					if n.Parent != octree.NilNode {
						r.cur.reads = append(r.cur.reads, res{'L', n.Parent})
					}
					for _, vi := range n.V {
						// A pair summed directly reads no multipole.
						if !t.Direct(ni, vi) {
							r.cur.reads = append(r.cur.reads, res{'M', vi})
						}
					}
				}
			}
		},
		L2P: func(leaves []int32) func() {
			return func() {
				r.cur = task{kind: kindL2P, writes: leafAcc(leaves)}
				for _, li := range leaves {
					r.cur.reads = append(r.cur.reads, res{'L', li})
				}
			}
		},
		Tags: Tags{Milestone: -1},
	}
	if !far {
		spec.UpChunk, spec.DownChunk, spec.L2P = nil, nil, nil
	}
	switch near {
	case "chunks":
		sch := t.NearField()
		spec.NearChunk = func(lo, hi int) func() {
			return func() { r.cur = task{kind: kindNear, writes: leafAcc(sch.Leaves[lo:hi])} }
		}
	case "single":
		spec.NearSingle = func() { r.cur = task{kind: kindNear, writes: leafAcc(t.VisibleLeaves())} }
	}
	build(spec, r)
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
		near := []string{"chunks", "single", "none"}[rng.Intn(3)]
		// Every phase subset: far-only is near "none"; near-only (every
		// fourth trial) drops the far-field chunks and keeps a near field.
		far := trial%4 != 3
		if !far && near == "none" {
			near = "chunks"
		}
		name := fmt.Sprintf("trial %d (n=%d S=%d workers=%d near=%s far=%v)", trial, n, tr.Cfg.S, workers, near, far)
		r := record(tr, sched.NewPool(workers), near, far)
		nLevels := len(tr.LevelOrder())

		// One chain: every occupied cell is computed by exactly one up and
		// one down task, every visible leaf evaluated once.
		writers := map[res][]sched.NodeID{}
		for id, k := range r.tasks {
			for _, w := range k.writes {
				writers[w] = append(writers[w], sched.NodeID(id))
			}
		}
		wantFar, wantAcc := 0, 0
		if far {
			wantFar, wantAcc = 1, 1
		}
		if near != "none" {
			wantAcc++
		}
		for ni := range tr.Nodes {
			if tr.Nodes[ni].Count() == 0 {
				continue
			}
			if m, l := len(writers[res{'M', int32(ni)}]), len(writers[res{'L', int32(ni)}]); m != wantFar || l != wantFar {
				t.Fatalf("%s: node %d has %d up and %d down tasks, want %d of each", name, ni, m, l, wantFar)
			}
		}
		for _, li := range tr.VisibleLeaves() {
			if got := len(writers[res{'A', li}]); got != wantAcc {
				t.Fatalf("%s: leaf %d bodies are written by %d tasks, want %d", name, li, got, wantAcc)
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
